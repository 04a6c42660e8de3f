package bench

import (
	"fmt"

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

// fig4Probes lists a Figure 4 panel's curves in plotting order: native
// ARMCI and the four ARMCI-MPI transfer methods, op from rank 0 to the
// first core of the next node.
func fig4Probes(plat *platform.Platform, op ContigOp, segBytes int, counts []int, iters int, rec *obs.Recorder) []probe {
	base := probe{plat: plat, target: plat.CoresPerNode, op: op, xs: counts, seg: segBytes, iters: iters, rec: rec}
	opt := benchOptions()
	method := func(m armcimpi.Method) armcimpi.Options {
		o := opt
		o.StridedMethod = m
		return o
	}
	return []probe{
		base.as("Native", harness.ImplNative, method(armcimpi.MethodDirect)),
		base.as("Direct", harness.ImplARMCIMPI, method(armcimpi.MethodDirect)),
		base.as("IOV-Direct", harness.ImplARMCIMPI, method(armcimpi.MethodIOVDirect)),
		base.as("IOV-Batched", harness.ImplARMCIMPI, method(armcimpi.MethodBatched)),
		base.as("IOV-Consrv", harness.ImplARMCIMPI, method(armcimpi.MethodConservative)),
	}
}

// fig4Dispatch is the order a panel's jobs are handed to several
// workers, as indices into fig4Probes: the method that opens the most
// epochs per operation first — conservative, batched, IOV-direct,
// direct, native (0.69 / 0.45 / 0.26 / 0.25 / 0.17 host seconds summed
// over the 24 panels, DESIGN.md "Figure sweeps") — so the longest job is
// never the one the last free worker starts on.
var fig4Dispatch = [...]int{4, 3, 2, 1, 0}

// Fig4 regenerates one platform/segment-size/operation panel of
// Figure 4: bandwidth vs segment count for every transfer method, one
// job per method on the table runner.
func Fig4(plat *platform.Platform, op ContigOp, segBytes int, cfg Fig4Config) (*Figure, error) {
	fig := &Figure{
		Name:   fmt.Sprintf("fig4-%s-%s-%dB", plat.Name, op, segBytes),
		Title:  fmt.Sprintf("Strided %s bandwidth, %s, %d-byte segments", op, plat.System, segBytes),
		XLabel: "number of contiguous segments",
		YLabel: "bandwidth (GB/s)",
	}
	table := fig4Probes(plat, op, segBytes, segCounts(cfg.MaxSegs), cfg.Iters, cfg.Obs)
	if err := runTable(fig, table, fig4Dispatch[:]); err != nil {
		return nil, err
	}
	return fig, nil
}
