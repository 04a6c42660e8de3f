package bench

import (
	"fmt"
	"runtime"

	"repro/internal/armci"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// ContigOp names a contiguous operation under test.
type ContigOp string

const (
	OpGet ContigOp = "get"
	OpPut ContigOp = "put"
	OpAcc ContigOp = "acc"
)

// Fig3Config tunes the contiguous-bandwidth sweep.
type Fig3Config struct {
	MinExp, MaxExp int // transfer sizes 2^MinExp .. 2^MaxExp bytes
	Iters          int // measured repetitions per size

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultFig3 mirrors the paper's 2^0..2^25 sweep at a size that runs
// quickly; Quick shrinks it for tests.
func DefaultFig3() Fig3Config { return Fig3Config{MinExp: 0, MaxExp: 25, Iters: 4} }

// QuickFig3 is a reduced sweep for tests.
func QuickFig3() Fig3Config { return Fig3Config{MinExp: 3, MaxExp: 18, Iters: 2} }

// ContigBandwidth measures the bandwidth of one contiguous operation
// between two processes on different nodes, as in Figure 3: origin
// rank 0, target rank (one full node away).
func ContigBandwidth(plat *platform.Platform, impl harness.Impl, op ContigOp, cfg Fig3Config) (Series, error) {
	sizes := pow2s(cfg.MinExp, cfg.MaxExp)
	maxSize := sizes[len(sizes)-1]
	if op == OpAcc {
		// Accumulate needs float64-aligned sizes.
		var aligned []int
		for _, s := range sizes {
			if s >= 8 {
				aligned = append(aligned, s)
			}
		}
		sizes = aligned
	}
	series := Series{Label: fmt.Sprintf("%s (%s)", op, implShort(impl))}
	nranks := 2 * plat.CoresPerNode // origin and target on different nodes
	target := plat.CoresPerNode
	var bwErr error
	_, err := harness.RunObs(plat, nranks, impl, benchOptions(), cfg.Obs, func(rt armci.Runtime) {
		addrs, err := rt.Malloc(maxSize)
		if err != nil {
			bwErr = err
			return
		}
		local := rt.MallocLocal(maxSize)
		if rt.Rank() == 0 {
			for _, size := range sizes {
				// Warm up (registration, allocation paths), then fence so
				// pipelined native puts do not bleed into the timing.
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

func doContig(rt armci.Runtime, op ContigOp, local, remote armci.Addr, size int) error {
	switch op {
	case OpGet:
		return rt.Get(remote, local, size)
	case OpPut:
		return rt.Put(local, remote, size)
	case OpAcc:
		return rt.Acc(armci.AccDbl, 1.0, local, remote, size)
	default:
		return fmt.Errorf("bench: unknown op %q", op)
	}
}

func implShort(impl harness.Impl) string {
	switch impl {
	case harness.ImplNative:
		return "Nat."
	case harness.ImplDataServer:
		return "DS"
	case harness.ImplDartMPI:
		return "DART"
	default:
		return "MPI"
	}
}

// fig3Dispatch is the order the paper pair's six jobs of a panel are
// handed to several workers, as indices into Fig3's enumeration (native
// get, put, acc, then ARMCI-MPI get, put, acc): heaviest first — native
// acc, native put, ARMCI-MPI acc, native get, ARMCI-MPI put, ARMCI-MPI
// get (532 / 450 / 294 / 171 / 169 / 161 host ms summed over the four
// platforms, DESIGN.md "Figure sweeps"). Extra runtimes follow in
// enumeration order.
var fig3Dispatch = [...]int{2, 1, 5, 0, 4, 3}

// Fig3 regenerates one platform's panel of Figure 3: get/put/acc
// bandwidth for native ARMCI and ARMCI-MPI.
//
// Every runtime × operation is its own simulation job, so the panel is
// enumerated, swept and assembled as Fig4's is: series land in
// enumeration order whatever the worker count, one worker (always, when
// cfg.Obs is set) runs the jobs in plotting order, and several start
// the heaviest first (fig3Dispatch).
func Fig3(plat *platform.Platform, cfg Fig3Config) (*Figure, error) {
	fig := &Figure{
		Name:   "fig3-" + plat.Name,
		Title:  fmt.Sprintf("Contiguous ARMCI bandwidth, %s", plat.System),
		XLabel: "transfer size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	impls := []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI}
	for _, extra := range ExtraImpls {
		if extra != harness.ImplNative && extra != harness.ImplARMCIMPI {
			impls = append(impls, extra)
		}
	}
	type job struct {
		impl harness.Impl
		op   ContigOp
	}
	var jobs []job
	for _, impl := range impls {
		for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
			jobs = append(jobs, job{impl, op})
		}
	}
	fig.Series = make([]Series, len(jobs))
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	workers := runtime.GOMAXPROCS(0)
	if cfg.Obs != nil {
		workers = 1
	}
	if workers > 1 {
		copy(order, fig3Dispatch[:])
	}
	err := sweep(workers, len(order), func(i int) error {
		k := order[i]
		s, err := ContigBandwidth(plat, jobs[k].impl, jobs[k].op, cfg)
		if err != nil {
			return fmt.Errorf("bench: fig3 %s/%s/%s: %w", plat.Name, jobs[k].impl, jobs[k].op, err)
		}
		fig.Series[k] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
