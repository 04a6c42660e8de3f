package bench

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// LocalityAblationConfig tunes the cross-runtime locality ablation.
type LocalityAblationConfig struct {
	MinExp, MaxExp int // contiguous transfer sizes 2^MinExp .. 2^MaxExp
	Iters          int

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultLocalityAblation spans small messages through the bandwidth
// regime, crossing the dartmpi leader-staging threshold (8 KiB)
// mid-sweep so the hierarchical knee is visible.
func DefaultLocalityAblation() LocalityAblationConfig {
	return LocalityAblationConfig{MinExp: 3, MaxExp: 22, Iters: 3}
}

// QuickLocalityAblation is a reduced sweep for tests and CI.
func QuickLocalityAblation() LocalityAblationConfig {
	return LocalityAblationConfig{MinExp: 3, MaxExp: 16, Iters: 2}
}

// locVariant is one runtime column of the ablation: an ARMCI
// implementation plus the option toggles that define its routing
// policy.
type locVariant struct {
	key   string // series label suffix
	impl  harness.Impl
	tweak func(*armcimpi.Options)
}

// locVariants returns the runtime columns in presentation order. The
// armci-mpi pair isolates the shm fast path; the dartmpi pair isolates
// leader staging on top of full locality tiering.
func locVariants() []locVariant {
	return []locVariant{
		{key: "native", impl: harness.ImplNative},
		{key: "armci-ds", impl: harness.ImplDataServer},
		{key: "armci-mpi shm", impl: harness.ImplARMCIMPI},
		{key: "armci-mpi rma", impl: harness.ImplARMCIMPI,
			tweak: func(o *armcimpi.Options) { o.NoShm = true }},
		{key: "dartmpi", impl: harness.ImplDartMPI},
		{key: "dartmpi nostage", impl: harness.ImplDartMPI,
			tweak: func(o *armcimpi.Options) { o.NoLeaderStaging = true }},
	}
}

// locContigBandwidth measures contiguous op bandwidth for one runtime
// variant and placement. The origin is rank 1 — a non-leader core — so
// dartmpi's hierarchical path must stage inter-node transfers through
// its node leader rather than short-circuiting at the origin.
func locContigBandwidth(plat *platform.Platform, op ContigOp, v locVariant, intra bool, cfg LocalityAblationConfig) (Series, error) {
	sizes := pow2s(cfg.MinExp, cfg.MaxExp)
	maxSize := sizes[len(sizes)-1]
	place, target := "inter", plat.CoresPerNode
	if intra {
		place, target = "intra", 0
	}
	series := Series{Label: fmt.Sprintf("%s %s (%s)", place, op, v.key)}
	opt := benchOptions()
	if v.tweak != nil {
		v.tweak(&opt)
	}
	nranks := 2 * plat.CoresPerNode
	var bwErr error
	_, err := harness.RunObs(plat, nranks, v.impl, opt, cfg.Obs, func(rt armci.Runtime) {
		addrs, err := rt.Malloc(maxSize)
		if err != nil {
			bwErr = err
			return
		}
		local := rt.MallocLocal(maxSize)
		if rt.Rank() == 1 {
			for _, size := range sizes {
				if err := doContig(rt, op, local, addrs[target], size); err != nil {
					bwErr = err
					return
				}
				rt.Fence(target)
				start := rt.Proc().Now()
				for i := 0; i < cfg.Iters; i++ {
					if err := doContig(rt, op, local, addrs[target], size); err != nil {
						bwErr = err
						return
					}
				}
				rt.Fence(target)
				elapsed := rt.Proc().Now() - start
				series.X = append(series.X, float64(size))
				series.Y = append(series.Y, bandwidth(int64(size)*int64(cfg.Iters), elapsed))
			}
		}
		rt.Barrier()
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			bwErr = err
		}
	})
	if err != nil {
		return series, err
	}
	return series, bwErr
}

// AblationLocality regenerates the locality-routing ablation on one
// platform: contiguous put/get bandwidth for a same-node and a
// cross-node target under all four runtimes, plus the armci-mpi NoShm
// and dartmpi NoLeaderStaging toggles. Same-node dartmpi must beat the
// pure-RMA armci-mpi flavor (the shared GMR window turns those
// transfers into shared-segment copies); cross-node, the dartmpi pair brackets
// what leader staging costs or saves a non-leader origin.
func AblationLocality(plat *platform.Platform, cfg LocalityAblationConfig) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-locality",
		Title:  fmt.Sprintf("Locality-aware runtime ablation, %s", plat.System),
		XLabel: "transfer size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	for _, op := range []ContigOp{OpPut, OpGet} {
		for _, intra := range []bool{true, false} {
			for _, v := range locVariants() {
				s, err := locContigBandwidth(plat, op, v, intra, cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: ablation-locality %s/%s: %w", plat.Name, s.Label, err)
				}
				fig.Series = append(fig.Series, s)
			}
		}
	}
	return fig, nil
}
