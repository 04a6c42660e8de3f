package bench

import (
	"fmt"

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
// handed to several workers, as indices into fig3Probes (native
// get, put, acc, then ARMCI-MPI get, put, acc): heaviest first — native
// acc, native put, ARMCI-MPI acc, native get, ARMCI-MPI put, ARMCI-MPI
// get (532 / 450 / 294 / 171 / 169 / 161 host ms summed over the four
// platforms, DESIGN.md "Figure sweeps"). Extra runtimes follow in
// enumeration order.
var fig3Dispatch = [...]int{2, 1, 5, 0, 4, 3}

// Fig3 regenerates one platform's panel of Figure 3: get/put/acc
// bandwidth for native ARMCI and ARMCI-MPI, one job per runtime ×
// operation on the table runner.
func Fig3(plat *platform.Platform, cfg Fig3Config) (*Figure, error) {
	fig := &Figure{
		Name:   "fig3-" + plat.Name,
		Title:  fmt.Sprintf("Contiguous ARMCI bandwidth, %s", plat.System),
		XLabel: "transfer size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	if err := runTable(fig, fig3Probes(plat, cfg), fig3Dispatch[:]); err != nil {
		return nil, err
	}
	return fig, nil
}

// fig3Probes lists a Figure 3 panel's curves in plotting order: get,
// put and acc under native ARMCI, ARMCI-MPI, then any ExtraImpls.
func fig3Probes(plat *platform.Platform, cfg Fig3Config) []probe {
	impls := []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI}
	for _, extra := range ExtraImpls {
		if extra != harness.ImplNative && extra != harness.ImplARMCIMPI {
			impls = append(impls, extra)
		}
	}
	var table []probe
	for _, impl := range impls {
		for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
			table = append(table, fig3Probe(plat, impl, op, cfg))
		}
	}
	return table
}

// fig3Probe is one Figure 3 curve: op under impl between two processes
// on different nodes, rank 0 and the first core of the next node.
func fig3Probe(plat *platform.Platform, impl harness.Impl, op ContigOp, cfg Fig3Config) probe {
	p := probe{label: fmt.Sprintf("%s (%s)", op, implShort(impl)), plat: plat, impl: impl, opt: benchOptions(),
		target: plat.CoresPerNode, op: op, xs: pow2s(cfg.MinExp, cfg.MaxExp), iters: cfg.Iters, rec: cfg.Obs}
	if op == OpAcc {
		p.xs = pow2s(max(cfg.MinExp, 3), cfg.MaxExp) // accumulate needs float64-aligned sizes
	}
	return p
}
