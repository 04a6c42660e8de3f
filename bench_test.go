package repro

// One testing.B benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each iteration
// performs a reduced but complete regeneration of the experiment in
// deterministic virtual time; the custom metrics report the
// virtual-time results (bandwidths in GB/s, phase times in virtual
// milliseconds), while ns/op measures the simulator's host cost.
//
// Full sweeps (the paper's exact axes) are produced by the CLI:
//
//	go run ./cmd/armci-bench -fig table2  # Table II
//	go run ./cmd/armci-bench -fig 3       # Figure 3 (likewise 4, 5, 6)

import (
	"io"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/platform"
)

// BenchmarkTable2 regenerates Table II (platform characteristics).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard)
	}
}

// fig3Bench regenerates one platform's Figure 3 panel (contiguous
// get/put/acc bandwidth, native vs ARMCI-MPI) on a reduced sweep and
// reports the large-transfer get bandwidths.
func fig3Bench(b *testing.B, name string) {
	plat := platform.Get(name)
	cfg := bench.Fig3Config{MinExp: 6, MaxExp: 20, Iters: 2}
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig3(plat, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("get (Nat.)").Last(), "native-GB/s")
			b.ReportMetric(fig.Get("get (MPI)").Last(), "mpi-GB/s")
		}
	}
}

func BenchmarkFig3BlueGeneP(b *testing.B)  { fig3Bench(b, platform.BlueGeneP) }
func BenchmarkFig3InfiniBand(b *testing.B) { fig3Bench(b, platform.InfiniBand) }
func BenchmarkFig3CrayXT5(b *testing.B)    { fig3Bench(b, platform.CrayXT5) }
func BenchmarkFig3CrayXE6(b *testing.B)    { fig3Bench(b, platform.CrayXE6) }

// fig4Bench regenerates one platform's Figure 4 panel (strided put
// bandwidth across methods) at the paper's 1 KiB segment size.
func fig4Bench(b *testing.B, name string) {
	plat := platform.Get(name)
	cfg := bench.Fig4Config{SegSizes: []int{1024}, MaxSegs: 256, Iters: 2}
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig4(plat, bench.OpPut, 1024, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("Native").Last(), "native-GB/s")
			b.ReportMetric(fig.Get("Direct").Last(), "direct-GB/s")
			b.ReportMetric(fig.Get("IOV-Batched").Last(), "batched-GB/s")
			b.ReportMetric(fig.Get("IOV-Consrv").Last(), "consrv-GB/s")
		}
	}
}

func BenchmarkFig4BlueGeneP(b *testing.B)  { fig4Bench(b, platform.BlueGeneP) }
func BenchmarkFig4InfiniBand(b *testing.B) { fig4Bench(b, platform.InfiniBand) }
func BenchmarkFig4CrayXT5(b *testing.B)    { fig4Bench(b, platform.CrayXT5) }
func BenchmarkFig4CrayXE6(b *testing.B)    { fig4Bench(b, platform.CrayXE6) }

// BenchmarkFig5Interop regenerates Figure 5 (registration
// interoperability on InfiniBand) and reports the four curves' large-
// transfer bandwidths.
func BenchmarkFig5Interop(b *testing.B) {
	cfg := bench.QuickFig5()
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("ARMCI-IB, ARMCI Alloc").Last(), "armci+own-GB/s")
			b.ReportMetric(fig.Get("MPI, MPI Touch").Last(), "mpi+touch-GB/s")
			b.ReportMetric(fig.Get("ARMCI-IB, MPI Touch").Last(), "armci+mpi-GB/s")
			b.ReportMetric(fig.Get("MPI, ARMCI Alloc").Last(), "mpi+cold-GB/s")
		}
	}
}

// fig6Bench regenerates one platform's Figure 6 panel (CCSD proxy time
// at a fixed scale, both runtimes) and reports virtual milliseconds.
func fig6Bench(b *testing.B, name string) {
	plat := platform.Get(name)
	cfg := bench.QuickFig6()
	params := cfg.ParamsFor(plat)
	for i := 0; i < b.N; i++ {
		nat, err := bench.NWChemPhase(plat, harness.ImplNative, 16, armcimpi.DefaultOptions(), nil, params, false)
		if err != nil {
			b.Fatal(err)
		}
		mpi, err := bench.NWChemPhase(plat, harness.ImplARMCIMPI, 16, armcimpi.DefaultOptions(), nil, params, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(nat.Seconds()*1e3, "native-vms")
			b.ReportMetric(mpi.Seconds()*1e3, "mpi-vms")
		}
	}
}

func BenchmarkFig6BlueGeneP(b *testing.B)  { fig6Bench(b, platform.BlueGeneP) }
func BenchmarkFig6InfiniBand(b *testing.B) { fig6Bench(b, platform.InfiniBand) }
func BenchmarkFig6CrayXT5(b *testing.B)    { fig6Bench(b, platform.CrayXT5) }
func BenchmarkFig6CrayXE6(b *testing.B)    { fig6Bench(b, platform.CrayXE6) }

// BenchmarkFig6Triples runs the (T) phase on the two platforms the
// paper reports it for.
func BenchmarkFig6Triples(b *testing.B) {
	cfg := bench.QuickFig6()
	for i := 0; i < b.N; i++ {
		ib, err := bench.NWChemPhase(platform.Get(platform.InfiniBand), harness.ImplARMCIMPI, 8, armcimpi.DefaultOptions(), nil, cfg.Params, true)
		if err != nil {
			b.Fatal(err)
		}
		xe, err := bench.NWChemPhase(platform.Get(platform.CrayXE6), harness.ImplARMCIMPI, 8, armcimpi.DefaultOptions(), nil, cfg.Params, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ib.Seconds()*1e3, "ib-vms")
			b.ReportMetric(xe.Seconds()*1e3, "xe-vms")
		}
	}
}

// BenchmarkAblationRmw compares native atomics, MPI-3 fetch-and-op,
// and the MPI-2 mutex emulation (SectionV.D / SectionVIII.B).
func BenchmarkAblationRmw(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationRmw(plat, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("native-atomic").Last(), "native-us")
			b.ReportMetric(fig.Get("mpi3-fetchop").Last(), "mpi3-us")
			b.ReportMetric(fig.Get("mpi2-mutex").Last(), "mpi2-us")
		}
	}
}

// BenchmarkAblationAccessModes measures the SectionVIII.A access-mode
// extension (shared vs exclusive lock epochs).
func BenchmarkAblationAccessModes(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationAccessModes(plat, 4, 4, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("conflicting").Last(), "exclusive-us")
			b.ReportMetric(fig.Get("read-only").Last(), "shared-us")
		}
	}
}

// BenchmarkAblationStridedMethods summarizes the per-method strided
// bandwidths behind Figure 4's method selection.
func BenchmarkAblationStridedMethods(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationStridedMethods(plat, 1024, 128, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("Direct").Last(), "direct-GB/s")
			b.ReportMetric(fig.Get("IOV-Batched").Last(), "batched-GB/s")
			b.ReportMetric(fig.Get("IOV-Consrv").Last(), "consrv-GB/s")
		}
	}
}

// BenchmarkAblationBatchSize sweeps the batched method's B parameter
// (SectionVI.A).
func BenchmarkAblationBatchSize(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationBatchSize(plat, 256, 64, []int{1, 16, 0}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("B=1").Last(), "B1-GB/s")
			b.ReportMetric(fig.Get("B=16").Last(), "B16-GB/s")
			b.ReportMetric(fig.Get("B=unlimited").Last(), "Bunlimited-GB/s")
		}
	}
}

// BenchmarkAblationAsyncProgress measures SectionV.F's asynchronous
// progress requirement (enabled vs a 20us target service delay).
func BenchmarkAblationAsyncProgress(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationAsyncProgress(plat, 20000, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("async-progress").Last(), "async-us")
			b.ReportMetric(fig.Get("no-async-progress").Last(), "noasync-us")
		}
	}
}

// BenchmarkAblationMPI3 compares the paper's MPI-2 design against the
// SectionVIII.B MPI-3 lock-all backend on the CCSD proxy.
func BenchmarkAblationMPI3(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationMPI3Backend(plat, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.Get("mpi2-epochs").Last(), "mpi2-vms")
			b.ReportMetric(fig.Get("mpi3-lockall").Last(), "mpi3-vms")
		}
	}
}

// BenchmarkAblationDataServer compares the SectionIX two-sided
// data-server ARMCI against the one-sided stacks (aggregate bandwidth
// under contention and CCSD proxy time).
func BenchmarkAblationDataServer(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	for i := 0; i < b.N; i++ {
		bw, _, err := bench.AblationDataServer(plat, 4, 3, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(bw.Get("native").Last(), "native-GB/s")
			b.ReportMetric(bw.Get("armci-mpi").Last(), "mpi-GB/s")
			b.ReportMetric(bw.Get("armci-ds").Last(), "ds-GB/s")
		}
	}
}

// BenchmarkAblationConflictTree times one Fig. 4 put sweep on ib with
// 64-byte segments, up to 512 per descriptor, for all five of its
// series. It compares no two conflict checks, and its puts never reach
// the SectionVI.B check; internal/spans's BenchmarkDisjoint* time that.
func BenchmarkAblationConflictTree(b *testing.B) {
	plat := platform.Get(platform.InfiniBand)
	cfg := bench.Fig4Config{SegSizes: []int{64}, MaxSegs: 512, Iters: 1}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4(plat, bench.OpPut, 64, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
