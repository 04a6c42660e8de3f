package bench

import (
	"fmt"
	"runtime"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Fig4Config tunes the strided-bandwidth sweep.
type Fig4Config struct {
	SegSizes []int // contiguous segment sizes (paper: 16 and 1024 bytes)
	MaxSegs  int   // segment counts 1..MaxSegs in powers of two
	Iters    int

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultFig4 mirrors the paper: 16 B and 1024 B segments, 1..1024
// segments.
func DefaultFig4() Fig4Config {
	return Fig4Config{SegSizes: []int{16, 1024}, MaxSegs: 1024, Iters: 3}
}

// QuickFig4 is a reduced sweep for tests.
func QuickFig4() Fig4Config {
	return Fig4Config{SegSizes: []int{16, 1024}, MaxSegs: 64, Iters: 2}
}

// stridedVariant is one of the method variants plotted in Figure 4.
type stridedVariant struct {
	label  string
	impl   harness.Impl
	method armcimpi.Method
}

// fig4Variants lists the series in plotting order.
func fig4Variants() []stridedVariant {
	return []stridedVariant{
		{"Native", harness.ImplNative, armcimpi.MethodDirect},
		{"Direct", harness.ImplARMCIMPI, armcimpi.MethodDirect},
		{"IOV-Direct", harness.ImplARMCIMPI, armcimpi.MethodIOVDirect},
		{"IOV-Batched", harness.ImplARMCIMPI, armcimpi.MethodBatched},
		{"IOV-Consrv", harness.ImplARMCIMPI, armcimpi.MethodConservative},
	}
}

// fig4Dispatch is the order a panel's jobs are handed to several
// workers, as indices into fig4Variants: the method that opens the most
// epochs per operation first — conservative, batched, IOV-direct,
// direct, native (0.69 / 0.45 / 0.26 / 0.25 / 0.17 host seconds summed
// over the 24 panels, DESIGN.md "Figure sweeps") — so the longest job is
// never the one the last free worker starts on.
var fig4Dispatch = [...]int{4, 3, 2, 1, 0}

// StridedBandwidth measures one variant's strided bandwidth for a
// fixed segment size over a range of segment counts. The transfer is a
// 2-D strided patch: contiguous segments of segBytes, remote stride
// 2x the segment (noncontiguous at the target), local buffer dense.
func StridedBandwidth(plat *platform.Platform, v stridedVariant, op ContigOp, segBytes int, counts []int, iters int) (Series, error) {
	return stridedBandwidthObs(plat, v, op, segBytes, counts, iters, nil)
}

func stridedBandwidthObs(plat *platform.Platform, v stridedVariant, op ContigOp, segBytes int, counts []int, iters int, rec *obs.Recorder) (Series, error) {
	opt := benchOptions()
	opt.StridedMethod = v.method
	series := Series{Label: v.label}
	maxSegs := counts[len(counts)-1]
	remoteStride := 2 * segBytes
	winBytes := maxSegs*remoteStride + segBytes
	nranks := 2 * plat.CoresPerNode
	target := plat.CoresPerNode
	var bwErr error
	_, err := harness.RunObs(plat, nranks, v.impl, opt, rec, func(rt armci.Runtime) {
		addrs, err := rt.Malloc(winBytes)
		if err != nil {
			bwErr = err
			return
		}
		local := rt.MallocLocal(maxSegs * segBytes)
		if rt.Rank() == 0 {
			for _, nseg := range counts {
				s := &armci.Strided{
					Src:       local,
					Dst:       addrs[target],
					SrcStride: []int{segBytes},
					DstStride: []int{remoteStride},
					Count:     []int{segBytes, nseg},
				}
				if op == OpGet {
					s.Src, s.Dst = addrs[target], local
					s.SrcStride, s.DstStride = []int{remoteStride}, []int{segBytes}
				}
				if err := doStrided(rt, op, s); err != nil {
					bwErr = err
					return
				}
				rt.Fence(target)
				start := rt.Proc().Now()
				for i := 0; i < iters; i++ {
					if err := doStrided(rt, op, s); err != nil {
						bwErr = err
						return
					}
				}
				rt.Fence(target)
				elapsed := rt.Proc().Now() - start
				payload := int64(segBytes) * int64(nseg) * int64(iters)
				series.X = append(series.X, float64(nseg))
				series.Y = append(series.Y, bandwidth(payload, elapsed))
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

func doStrided(rt armci.Runtime, op ContigOp, s *armci.Strided) error {
	switch op {
	case OpGet:
		return rt.GetS(s)
	case OpPut:
		return rt.PutS(s)
	case OpAcc:
		return rt.AccS(armci.AccDbl, 1.0, s)
	default:
		return fmt.Errorf("bench: unknown op %q", op)
	}
}

// Fig4 regenerates one platform/segment-size/operation panel of
// Figure 4: bandwidth vs segment count for every transfer method.
//
// Every method is its own simulation job, so the panel is enumerated,
// swept and assembled: series are added in enumeration order, so the
// figure is byte-for-byte what running the jobs one after another
// gives. The sweep uses every host core, or one worker when cfg.Obs is
// set: a recorder is one sink, filled in job order, which is also why
// the full stacks run on one dispatcher. One worker gains nothing from
// fig4Dispatch and runs the jobs in plotting order, which keeps a
// recorder's job sequence (trace, critical-path report) the sequential
// loop's.
func Fig4(plat *platform.Platform, op ContigOp, segBytes int, cfg Fig4Config) (*Figure, error) {
	var counts []int
	for c := 1; c <= cfg.MaxSegs; c *= 2 {
		counts = append(counts, c)
	}
	fig := &Figure{
		Name:   fmt.Sprintf("fig4-%s-%s-%dB", plat.Name, op, segBytes),
		Title:  fmt.Sprintf("Strided %s bandwidth, %s, %d-byte segments", op, plat.System, segBytes),
		XLabel: "number of contiguous segments",
		YLabel: "bandwidth (GB/s)",
	}
	vs := fig4Variants()
	fig.Series = make([]Series, len(vs))
	workers, order := runtime.GOMAXPROCS(0), fig4Dispatch
	if cfg.Obs != nil {
		workers = 1
	}
	if workers == 1 {
		order = [...]int{0, 1, 2, 3, 4}
	}
	err := sweep(workers, len(order), func(i int) error {
		k := order[i]
		s, err := stridedBandwidthObs(plat, vs[k], op, segBytes, counts, cfg.Iters, cfg.Obs)
		if err != nil {
			return fmt.Errorf("bench: fig4 %s/%s/%s: %w", plat.Name, vs[k].label, op, err)
		}
		fig.Series[k] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
