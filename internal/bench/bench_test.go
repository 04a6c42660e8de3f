package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/nwchem"
	"repro/internal/platform"
)

// These tests assert the qualitative claims of the paper's evaluation
// (SectionVII) — who wins, by roughly what factor, where crossovers
// fall — on reduced sweeps. EXPERIMENTS.md records the full-sweep
// numbers.

func bigTransfer(s Series) float64 { return s.Last() }

func TestFig3InfiniBandShapes(t *testing.T) {
	plat := platform.Get(platform.InfiniBand)
	cfg := Fig3Config{MinExp: 3, MaxExp: 22, Iters: 2}
	get := func(impl harness.Impl, op ContigOp) Series {
		s, err := fig3Probe(plat, impl, op, cfg).curve()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	natGet := get(harness.ImplNative, OpGet)
	mpiGet := get(harness.ImplARMCIMPI, OpGet)
	natAcc := get(harness.ImplNative, OpAcc)
	mpiAcc := get(harness.ImplARMCIMPI, OpAcc)
	// "less than but comparable": native wins but MPI is the same order.
	if bigTransfer(mpiGet) >= bigTransfer(natGet) {
		t.Errorf("IB get: MPI (%.2f) should trail native (%.2f)", bigTransfer(mpiGet), bigTransfer(natGet))
	}
	if bigTransfer(mpiGet) < 0.4*bigTransfer(natGet) {
		t.Errorf("IB get: MPI (%.2f) should be comparable to native (%.2f)", bigTransfer(mpiGet), bigTransfer(natGet))
	}
	// "double-precision accumulate does not keep up ... more than 1.5
	// GB/sec" gap on the InfiniBand cluster.
	if gap := bigTransfer(natAcc) - bigTransfer(mpiAcc); gap < 1.5 {
		t.Errorf("IB acc: bandwidth gap %.2f GB/s, paper reports > 1.5", gap)
	}
	// Bandwidth grows with size.
	if natGet.Y[0] >= bigTransfer(natGet) {
		t.Error("IB native get bandwidth does not grow with transfer size")
	}
}

func TestFig3CrayXTShapes(t *testing.T) {
	plat := platform.Get(platform.CrayXT5)
	cfg := Fig3Config{MinExp: 3, MaxExp: 22, Iters: 2}
	nat, err := fig3Probe(plat, harness.ImplNative, OpGet, cfg).curve()
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := fig3Probe(plat, harness.ImplARMCIMPI, OpGet, cfg).curve()
	if err != nil {
		t.Fatal(err)
	}
	// "performance is comparable for messages up to 32 kB".
	at32k := func(s Series) float64 {
		v, _ := s.At(32768)
		return v
	}
	if r := at32k(mpi) / at32k(nat); r < 0.5 || r > 1.3 {
		t.Errorf("XT at 32kB: MPI/native ratio %.2f, want comparable", r)
	}
	// "beyond this point, MPI achieves half of the bandwidth".
	if r := bigTransfer(mpi) / bigTransfer(nat); r < 0.35 || r > 0.7 {
		t.Errorf("XT large: MPI/native ratio %.2f, want ~0.5", r)
	}
}

func TestFig3CrayXEShapes(t *testing.T) {
	plat := platform.Get(platform.CrayXE6)
	cfg := Fig3Config{MinExp: 3, MaxExp: 22, Iters: 2}
	run := func(impl harness.Impl, op ContigOp) Series {
		s, err := fig3Probe(plat, impl, op, cfg).curve()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	natPut := run(harness.ImplNative, OpPut)
	mpiPut := run(harness.ImplARMCIMPI, OpPut)
	natAcc := run(harness.ImplNative, OpAcc)
	mpiAcc := run(harness.ImplARMCIMPI, OpAcc)
	// "ARMCI-MPI achieves twice the bandwidth of native ARMCI for put
	// and get on large messages".
	if r := bigTransfer(mpiPut) / bigTransfer(natPut); r < 1.6 || r > 2.6 {
		t.Errorf("XE large put: MPI/native ratio %.2f, want ~2", r)
	}
	// "a 25%% higher bandwidth for double precision accumulate".
	if r := bigTransfer(mpiAcc) / bigTransfer(natAcc); r < 1.1 || r > 1.5 {
		t.Errorf("XE large acc: MPI/native ratio %.2f, want ~1.25", r)
	}
}

func TestFig3BlueGeneShapes(t *testing.T) {
	plat := platform.Get(platform.BlueGeneP)
	cfg := Fig3Config{MinExp: 3, MaxExp: 22, Iters: 2}
	nat, err := fig3Probe(plat, harness.ImplNative, OpPut, cfg).curve()
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := fig3Probe(plat, harness.ImplARMCIMPI, OpPut, cfg).curve()
	if err != nil {
		t.Fatal(err)
	}
	// "less than but comparable".
	if r := bigTransfer(mpi) / bigTransfer(nat); r < 0.6 || r >= 1.0 {
		t.Errorf("BG/P put: MPI/native ratio %.2f, want slightly below 1", r)
	}
}

func TestFig4Shapes(t *testing.T) {
	counts := []int{1, 4, 16, 64, 256, 1024}
	variantBW := func(plat *platform.Platform, label string, op ContigOp, segBytes int) Series {
		for _, p := range fig4Probes(plat, op, segBytes, counts, 2, nil) {
			if p.label == label {
				s, err := p.curve()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
		t.Fatalf("no variant %q", label)
		return Series{}
	}
	t.Run("conservative-always-worst", func(t *testing.T) {
		plat := platform.Get(platform.InfiniBand)
		cons := variantBW(plat, "IOV-Consrv", OpPut, 1024)
		batched := variantBW(plat, "IOV-Batched", OpPut, 1024)
		direct := variantBW(plat, "Direct", OpPut, 1024)
		at := func(s Series, x float64) float64 { v, _ := s.At(x); return v }
		for _, x := range []float64{64, 256} {
			if at(cons, x) >= at(batched, x) || at(cons, x) >= at(direct, x) {
				t.Errorf("at %v segs: conservative (%.3f) not the slowest (batched %.3f, direct %.3f)",
					x, at(cons, x), at(batched, x), at(direct, x))
			}
		}
	})
	t.Run("bgp-direct-wins-small-segments", func(t *testing.T) {
		plat := platform.Get(platform.BlueGeneP)
		direct := variantBW(plat, "Direct", OpPut, 16)
		batched := variantBW(plat, "IOV-Batched", OpPut, 16)
		// "the direct strided method gives the best performance for
		// small segments as a result of ... data packing".
		if direct.Last() <= batched.Last() {
			t.Errorf("BG/P 16B segments: direct (%.4f) should beat batched (%.4f)", direct.Last(), batched.Last())
		}
	})
	t.Run("bgp-batched-competitive-large-segments", func(t *testing.T) {
		plat := platform.Get(platform.BlueGeneP)
		direct := variantBW(plat, "Direct", OpPut, 1024)
		batched := variantBW(plat, "IOV-Batched", OpPut, 1024)
		nat := variantBW(plat, "Native", OpPut, 1024)
		// "for larger segments ... the batched method ... gives
		// performance that is near that of the native ARMCI".
		if batched.Last() < 0.6*nat.Last() {
			t.Errorf("BG/P 1KB segments: batched (%.4f) should be near native (%.4f)", batched.Last(), nat.Last())
		}
		if batched.Last() <= direct.Last() {
			t.Errorf("BG/P 1KB segments: batched (%.4f) should beat direct (%.4f) — slow cores make packing costly",
				batched.Last(), direct.Last())
		}
	})
	t.Run("ib-batched-collapses-many-segments", func(t *testing.T) {
		plat := platform.Get(platform.InfiniBand)
		batched := variantBW(plat, "IOV-Batched", OpPut, 1024)
		// "For large numbers of segments on InfiniBand, performance of
		// the batched transfer method suffers severely" (MPICH2 queue
		// defect).
		peak := slices.Max(batched.Y)
		if batched.Last() > 0.6*peak {
			t.Errorf("IB batched at 1024 segs (%.3f) should collapse below peak (%.3f)", batched.Last(), peak)
		}
	})
	t.Run("xe-mpi-beats-native", func(t *testing.T) {
		plat := platform.Get(platform.CrayXE6)
		direct := variantBW(plat, "Direct", OpPut, 1024)
		nat := variantBW(plat, "Native", OpPut, 1024)
		if direct.Last() <= nat.Last() {
			t.Errorf("XE strided: direct (%.3f) should beat the under-tuned native (%.3f)", direct.Last(), nat.Last())
		}
	})
}

func TestFig5Shapes(t *testing.T) {
	fig, err := Fig5(QuickFig5())
	if err != nil {
		t.Fatal(err)
	}
	big := 1 << 18
	at := func(label string) float64 {
		s := fig.Get(label)
		if s == nil {
			t.Fatalf("missing series %q", label)
		}
		v, ok := s.At(float64(big))
		if !ok {
			t.Fatalf("series %q has no point at %d", label, big)
		}
		return v
	}
	armciBest := at("ARMCI-IB, ARMCI Alloc")
	mpiTouch := at("MPI, MPI Touch")
	armciMPIBuf := at("ARMCI-IB, MPI Touch")
	mpiCold := at("MPI, ARMCI Alloc")
	// Best case: ARMCI with its own pinned buffers.
	if armciBest <= mpiTouch || armciBest <= armciMPIBuf || armciBest <= mpiCold {
		t.Errorf("ARMCI+own-buffer (%.2f) should lead all curves (%.2f, %.2f, %.2f)",
			armciBest, mpiTouch, armciMPIBuf, mpiCold)
	}
	// ARMCI forced onto its non-pinned path loses significantly.
	if armciMPIBuf > 0.6*armciBest {
		t.Errorf("ARMCI with MPI buffer (%.2f) should show a significant gap from %.2f", armciMPIBuf, armciBest)
	}
	// Untouched buffers pay on-demand registration above the bounce
	// threshold: cold MPI curve trails touched MPI at large sizes.
	if mpiCold >= mpiTouch {
		t.Errorf("MPI cold buffer (%.2f) should trail touched (%.2f)", mpiCold, mpiTouch)
	}
	// Below the 8 KiB bounce threshold the cold path is serviceable
	// (bounce buffers): the cliff appears above the threshold.
	cold := fig.Get("MPI, ARMCI Alloc")
	r4k, _ := cold.At(4096)
	touched4k, _ := fig.Get("MPI, MPI Touch").At(4096)
	if r4k < 0.4*touched4k {
		t.Errorf("below bounce threshold, cold path (%.3f) should be close to touched (%.3f)", r4k, touched4k)
	}
}

func TestFig6Shapes(t *testing.T) {
	cfg := QuickFig6()
	phase := func(plat *platform.Platform, impl harness.Impl, cores int) float64 {
		tm, err := NWChemPhase(plat, impl, cores, benchOptions(), nil, cfg.Params, false)
		if err != nil {
			t.Fatal(err)
		}
		return tm.Seconds()
	}
	t.Run("ib-native-leads", func(t *testing.T) {
		plat := platform.Get(platform.InfiniBand)
		nat := phase(plat, harness.ImplNative, 16)
		mpi := phase(plat, harness.ImplARMCIMPI, 16)
		// "a performance gap of roughly 2x" on the aggressively tuned
		// InfiniBand native implementation.
		if r := mpi / nat; r < 1.15 || r > 3.5 {
			t.Errorf("IB CCSD: ARMCI-MPI/native time ratio %.2f, want >1 (paper ~2x)", r)
		}
	})
	t.Run("xe-mpi-leads", func(t *testing.T) {
		plat := platform.Get(platform.CrayXE6)
		nat := phase(plat, harness.ImplNative, 16)
		mpi := phase(plat, harness.ImplARMCIMPI, 16)
		// "ARMCI-MPI performs 30%% better than the currently available
		// native implementation".
		if mpi >= nat {
			t.Errorf("XE CCSD: ARMCI-MPI (%.3fs) should beat native (%.3fs)", mpi, nat)
		}
	})
	t.Run("strong-scaling", func(t *testing.T) {
		// A larger problem than the quick sweep: 8 IB cores are one
		// node, where the shm fast path makes the quick problem
		// communication-trivial — only a compute-bearing problem still
		// gains from the second node's cores (the small-node-count
		// shape change the shm path introduces in Figure 6).
		plat := platform.Get(platform.InfiniBand)
		p := nwchem.Params{NO: 6, NV: 32, Blk: 48, Iter: 1, Chunk: 4, FlopMult: 40}
		big := func(cores int) float64 {
			tm, err := NWChemPhase(plat, harness.ImplARMCIMPI, cores, benchOptions(), nil, p, false)
			if err != nil {
				t.Fatal(err)
			}
			return tm.Seconds()
		}
		t8 := big(8)
		t16 := big(16)
		if t16 >= t8 {
			t.Errorf("CCSD did not scale: %0.3fs at 8 -> %.3fs at 16", t8, t16)
		}
	})
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"Intrepid", "Fusion", "Jaguar", "Hopper", "InfiniBand QDR", "Gemini", "MVAPICH2 1.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestFigurePrintAndAccessors(t *testing.T) {
	fig := &Figure{Name: "t", Title: "test", XLabel: "x", YLabel: "y"}
	fig.Add("a", 1, 10)
	fig.Add("a", 2, 20)
	fig.Add("b", 1, 5)
	var buf bytes.Buffer
	if err := fig.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "t — test") || !strings.Contains(out, "20") {
		t.Errorf("figure print malformed:\n%s", out)
	}
	if fig.Get("a").Last() != 20 || slices.Max(fig.Get("a").Y) != 20 {
		t.Error("series accessors wrong")
	}
	if fig.Get("missing") != nil {
		t.Error("missing series should be nil")
	}
	if v, ok := fig.Get("b").At(1); !ok || v != 5 {
		t.Error("At lookup wrong")
	}
}

func TestAblationRmwOrdering(t *testing.T) {
	plat := harness.TestPlatform()
	fig, err := AblationRmw(plat, 6)
	if err != nil {
		t.Fatal(err)
	}
	native, mpi3, mpi2 := fig.Get("native-atomic").Last(), fig.Get("mpi3-fetchop").Last(), fig.Get("mpi2-mutex").Last()
	// native atomic < mpi3 fetch-op < mpi2 mutex emulation.
	if !(native < mpi3 && mpi3 < mpi2) {
		t.Errorf("rmw latency ordering wrong: native %v, mpi3 %v, mpi2 %v us", native, mpi3, mpi2)
	}
}

func TestAblationAccessModes(t *testing.T) {
	plat := harness.TestPlatform()
	fig, err := AblationAccessModes(plat, 4, 4, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if ro, excl := fig.Get("read-only").Last(), fig.Get("conflicting").Last(); ro >= excl {
		t.Errorf("read-only mode (%v us) should beat conflicting (%v us)", ro, excl)
	}
}

// TestAblationStridedMethods: the per-platform method choice of
// SectionVII.D in the ablation-strided-<plat> panels -fig ablations
// prints, as EXPERIMENTS.md quotes them: batched beats direct on BG/P,
// direct beats batched on IB.
func TestAblationStridedMethods(t *testing.T) {
	figs, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		plat          string
		winner, loser string
	}{
		{platform.BlueGeneP, "IOV-Batched", "Direct"},
		{platform.InfiniBand, "Direct", "IOV-Batched"},
	} {
		i := slices.IndexFunc(figs, func(f *Figure) bool { return f.Name == "ablation-strided-"+c.plat })
		if i < 0 {
			t.Fatalf("no ablation-strided-%s panel", c.plat)
		}
		if w, l := figs[i].Get(c.winner).Last(), figs[i].Get(c.loser).Last(); w <= l {
			t.Errorf("%s: %s (%.3f GB/s) should beat %s (%.3f GB/s)", c.plat, c.winner, w, c.loser, l)
		}
	}
}

func TestAblationBatchSize(t *testing.T) {
	plat := platform.Get(platform.InfiniBand)
	fig, err := AblationBatchSize(plat, 256, 64, []int{1, 8, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// B=1 degenerates toward conservative; unlimited amortizes best on
	// a healthy path of this length.
	if b1, unlimited := fig.Get("B=1").Last(), fig.Get("B=unlimited").Last(); b1 >= unlimited {
		t.Errorf("B=1 (%.3f) should be slower than unlimited (%.3f)", b1, unlimited)
	}
}

func TestAblationAsyncProgress(t *testing.T) {
	plat := platform.Get(platform.InfiniBand)
	fig, err := AblationAsyncProgress(plat, 20000, 6)
	if err != nil {
		t.Fatal(err)
	}
	with, without := fig.Get("async-progress").Last(), fig.Get("no-async-progress").Last()
	if without <= with {
		t.Errorf("disabling async progress (%v us) should cost more than enabling it (%v us)", without, with)
	}
	// Three target-side services per op (lock, data, unlock): expect
	// roughly 3x the added delay.
	if without-with < 40 {
		t.Errorf("progress delay barely visible: %v -> %v us", with, without)
	}
}

func TestAblationMPI3Backend(t *testing.T) {
	fig, err := AblationMPI3Backend(platform.Get(platform.InfiniBand), 8)
	if err != nil {
		t.Fatal(err)
	}
	if mpi3, mpi2 := fig.Get("mpi3-lockall").Last(), fig.Get("mpi2-epochs").Last(); mpi3 >= mpi2 {
		t.Errorf("MPI-3 backend (%v ms) should beat MPI-2 epochs (%v ms)", mpi3, mpi2)
	}
}

func TestAblationDataServer(t *testing.T) {
	plat := platform.Get(platform.InfiniBand)
	bw, ccsd, err := AblationDataServer(plat, 4, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	native, mpi, ds := bw.Get("native").Last(), bw.Get("armci-mpi").Last(), bw.Get("armci-ds").Last()
	// SectionIX: under concurrent large transfers the per-node server
	// serializes (staging copy + response injection on its CPU), while
	// the one-sided stacks hand the work to the RDMA hardware.
	if ds >= native {
		t.Errorf("data server (%v GB/s) should trail native (%v GB/s) under contention", ds, native)
	}
	if ds >= mpi {
		t.Errorf("data server (%v GB/s) should trail armci-mpi (%v GB/s) under contention", ds, mpi)
	}
	// And the consumed core + serialization cost CCSD time against
	// both one-sided stacks.
	if dsT, nativeT := ccsd.Get("armci-ds").Last(), ccsd.Get("native").Last(); dsT <= nativeT {
		t.Errorf("data-server CCSD (%v ms) should exceed native (%v ms)", dsT, nativeT)
	}
}
