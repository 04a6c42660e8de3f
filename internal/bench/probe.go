package bench

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// probe is one curve of a bandwidth figure or ablation (SectionVII):
// one origin issues op to one target, at every point of xs. A
// contiguous probe's xs are transfer sizes in bytes; a strided one's
// are segment counts of a 2-D patch of seg-byte segments, dense at the
// origin and at stride 2*seg at the target.
type probe struct {
	label          string
	plat           *platform.Platform
	impl           harness.Impl
	opt            armcimpi.Options // benchOptions(), then the row's own axis
	origin, target int
	op             ContigOp
	xs             []int
	seg            int // strided segment bytes; 0 for a contiguous probe
	iters          int
	rec            *obs.Recorder
}

// as returns p relabelled to run impl with opt.
func (p probe) as(label string, impl harness.Impl, opt armcimpi.Options) probe {
	p.label, p.impl, p.opt = label, impl, opt
	return p
}

// measure runs p on 2*CoresPerNode ranks and returns the virtual time
// each point's iters operations took: after one warm-up operation
// (registration, allocation paths) and a fence, so pipelined native
// puts do not bleed into the timing, up to the fence that completes
// them remotely.
func measure(p probe) ([]sim.Time, error) {
	maxX := p.xs[len(p.xs)-1]
	winBytes, localBytes := maxX, maxX
	if p.seg > 0 {
		winBytes, localBytes = (2*maxX+1)*p.seg, maxX*p.seg
	}
	elapsed := make([]sim.Time, len(p.xs))
	_, err := harness.RunObs(p.plat, 2*p.plat.CoresPerNode, p.impl, p.opt, p.rec, func(j *harness.Job, pr *sim.Proc) error {
		rt := j.Runtime(pr)
		addrs, err := rt.Malloc(winBytes)
		if err != nil {
			return err
		}
		local := rt.MallocLocal(localBytes)
		if rt.Rank() == p.origin {
			remote := addrs[p.target]
			var s *armci.Strided
			if p.seg > 0 {
				s = stridedPatch(p.op, local, remote, p.seg)
			}
			for i, x := range p.xs {
				if s != nil {
					s.Count[1] = x
				}
				if err := doOp(rt, p.op, local, remote, s, x); err != nil {
					return err
				}
				rt.Fence(p.target)
				start := rt.Proc().Now()
				for k := 0; k < p.iters; k++ {
					if err := doOp(rt, p.op, local, remote, s, x); err != nil {
						return err
					}
				}
				rt.Fence(p.target)
				elapsed[i] = rt.Proc().Now() - start
			}
		}
		rt.Barrier()
		return rt.Free(addrs[rt.Rank()])
	})
	if err != nil {
		return nil, err
	}
	return elapsed, nil
}

// stridedPatch is the 2-D descriptor of segments of seg bytes: dense
// at the origin, at stride 2*seg at the target. One probe point sets
// its segment count, Count[1], and reuses it for the next.
func stridedPatch(op ContigOp, local, remote armci.Addr, seg int) *armci.Strided {
	s := &armci.Strided{
		Src:       local,
		Dst:       remote,
		SrcStride: []int{seg},
		DstStride: []int{2 * seg},
		Count:     []int{seg, 1},
	}
	if op == OpGet {
		s.Src, s.Dst = remote, local
		s.SrcStride, s.DstStride = s.DstStride, s.SrcStride
	}
	return s
}

// doOp issues one operation: the strided patch s when s is non-nil,
// size contiguous bytes from local to remote (or back, for a get)
// otherwise.
func doOp(rt armci.Runtime, op ContigOp, local, remote armci.Addr, s *armci.Strided, size int) error {
	switch {
	case op == OpGet && s != nil:
		return rt.GetS(s)
	case op == OpGet:
		return rt.Get(remote, local, size)
	case op == OpPut && s != nil:
		return rt.PutS(s)
	case op == OpPut:
		return rt.Put(local, remote, size)
	case op == OpAcc && s != nil:
		return rt.AccS(armci.AccDbl, 1.0, s)
	case op == OpAcc:
		return rt.Acc(armci.AccDbl, 1.0, local, remote, size)
	}
	return fmt.Errorf("bench: unknown op %q", op)
}

// curve measures p and converts each point to GB/s.
func (p probe) curve() (Series, error) {
	elapsed, err := measure(p)
	if err != nil {
		return Series{Label: p.label}, err
	}
	s := Series{Label: p.label, X: make([]float64, len(p.xs)), Y: make([]float64, len(p.xs))}
	for i, x := range p.xs {
		bytes := int64(x) * int64(p.iters)
		if p.seg > 0 {
			bytes *= int64(p.seg)
		}
		s.X[i], s.Y[i] = float64(x), bandwidth(bytes, elapsed[i])
	}
	return s, nil
}

// runTable measures every probe of table as one job of a sweep
// (DESIGN.md, "Figure sweeps") and sets fig's series to their curves
// in table order, whatever the worker count. Several workers start the
// jobs in dispatch order, a permutation of the table's first
// len(dispatch) indices; the rest follow in table order. A recorder is
// one sink filled in job order, so a table that records runs on one
// worker in table order, and its job sequence (trace, critical-path
// report) is the sequential loop's.
func runTable(fig *Figure, table []probe, dispatch []int) error {
	order := make([]int, len(table))
	for i := range order {
		order[i] = i
	}
	workers := runtime.GOMAXPROCS(0)
	if slices.ContainsFunc(table, func(p probe) bool { return p.rec != nil }) {
		workers = 1
	}
	if workers > 1 {
		copy(order, dispatch)
	}
	fig.Series = make([]Series, len(table))
	return sweep(workers, len(order), func(i int) error {
		p := table[order[i]]
		s, err := p.curve()
		if err != nil {
			return fmt.Errorf("bench: %s %s/%s: %w", fig.Name, p.plat.Name, p.label, err)
		}
		fig.Series[order[i]] = s
		return nil
	})
}

// segCounts returns the segment counts 1, 2, 4, ... up to n.
func segCounts(n int) []int {
	return pow2s(0, bits.Len(uint(n))-1)
}
