package bench

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Fig5Config tunes the interoperability sweep.
type Fig5Config struct {
	MinExp, MaxExp int
	Iters          int

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultFig5 mirrors the paper's 2^2..2^22 sweep.
func DefaultFig5() Fig5Config { return Fig5Config{MinExp: 2, MaxExp: 22, Iters: 3} }

// QuickFig5 is a reduced sweep for tests.
func QuickFig5() Fig5Config { return Fig5Config{MinExp: 4, MaxExp: 18, Iters: 2} }

// fig5Curve describes one of the four buffer/runtime pairings of
// Figure 5 (measured on the InfiniBand platform).
type fig5Curve struct {
	label string
	impl  harness.Impl
	// bufDomain is the allocator of the local buffer; prepinned applies
	// to that domain's allocations.
	bufDomain fabric.Domain
	prepinned bool
	// evict forces the buffer out of the runtime's registration cache
	// before every transfer, measuring the first-touch path ("MPI has
	// not touched the given buffer").
	evict bool
}

func fig5Curves() []fig5Curve {
	return []fig5Curve{
		{label: "ARMCI-IB, ARMCI Alloc", impl: harness.ImplNative, bufDomain: fabric.DomainARMCI, prepinned: true},
		{label: "MPI, MPI Touch", impl: harness.ImplARMCIMPI, bufDomain: fabric.DomainMPI},
		{label: "ARMCI-IB, MPI Touch", impl: harness.ImplNative, bufDomain: fabric.DomainMPI},
		{label: "MPI, ARMCI Alloc", impl: harness.ImplARMCIMPI, bufDomain: fabric.DomainARMCI, prepinned: true, evict: true},
	}
}

// interopBandwidth measures contiguous get bandwidth with the local
// buffer allocated by a chosen runtime's allocator, reproducing the
// mismatched-registration effects of Figure 5.
func interopBandwidth(plat *platform.Platform, c fig5Curve, cfg Fig5Config) (Series, error) {
	sizes := pow2s(cfg.MinExp, cfg.MaxExp)
	maxSize := sizes[len(sizes)-1]
	series := Series{Label: c.label}
	nranks := 2 * plat.CoresPerNode
	target := plat.CoresPerNode
	myDomain := fabric.DomainARMCI
	if c.impl == harness.ImplARMCIMPI {
		myDomain = fabric.DomainMPI
	}
	_, err := harness.RunObs(plat, nranks, c.impl, benchOptions(), cfg.Obs, func(j *harness.Job, p *sim.Proc) error {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(maxSize)
		if err != nil {
			return err
		}
		if rt.Rank() == 0 {
			// Allocate the local buffer from the requested allocator,
			// bypassing the runtime (this is the other runtime's memory).
			reg := j.M.Space(0).Alloc(maxSize, c.bufDomain, c.prepinned)
			local := armci.Addr{Rank: 0, VA: reg.VA}
			for _, size := range sizes {
				if !c.evict {
					// Touch once so on-demand registration is cached.
					if err := rt.Get(addrs[target], local, size); err != nil {
						return err
					}
				}
				start := rt.Proc().Now()
				for i := 0; i < cfg.Iters; i++ {
					if c.evict {
						j.M.Unpin(reg, myDomain)
					}
					if err := rt.Get(addrs[target], local, size); err != nil {
						return err
					}
				}
				elapsed := rt.Proc().Now() - start
				series.X = append(series.X, float64(size))
				series.Y = append(series.Y, bandwidth(int64(size)*int64(cfg.Iters), elapsed))
			}
		}
		rt.Barrier()
		return rt.Free(addrs[rt.Rank()])
	})
	return series, err
}

// Fig5 regenerates Figure 5 on the InfiniBand platform: contiguous get
// bandwidth for the four buffer/runtime pairings.
func Fig5(cfg Fig5Config) (*Figure, error) {
	plat := platform.Get(platform.InfiniBand)
	fig := &Figure{
		Name:   "fig5-ib",
		Title:  "Interoperability: get bandwidth vs. local buffer allocator, " + plat.System,
		XLabel: "transfer size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	for _, c := range fig5Curves() {
		s, err := interopBandwidth(plat, c, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig5 %q: %w", c.label, err)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
