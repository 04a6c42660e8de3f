package bench

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/nwchem"
	"repro/internal/platform"
)

// smokeScale is a miniature scale configuration for tests and the CI
// race smoke: the same two shapes and both runtimes, at a rank count
// small enough for the race detector.
func smokeScale() ScaleConfig {
	return ScaleConfig{
		Ranks:          []int{128},
		Params:         nwchem.Params{NO: 2, NV: 16, Blk: 16, Iter: 1, Chunk: 1, FlopMult: 40},
		FanoutOwners:   8,
		FanoutBlkElems: 64,
		FanoutIters:    2,
	}
}

var update = flag.Bool("update", false, "rewrite testdata/ goldens from the current engine")

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestModeEquivalenceGuardedFigures holds the engine to what the three
// scheduler modes it replaced all produced: every guarded quick figure
// regenerates byte-identically to the committed results/ artifact, and
// the smoke-sized scale figure to a recording made on the last commit
// that had those modes. (results/ is never rewritten by -update: a
// moved artifact is a re-baseline to be made with armci-bench -json.)
func TestModeEquivalenceGuardedFigures(t *testing.T) {
	ib := platform.Get(platform.InfiniBand)
	for _, gen := range []func() (*Figure, error){
		func() (*Figure, error) { return Fig3(ib, QuickFig3()) },
		func() (*Figure, error) { return AblationShm(ib, QuickShmAblation()) },
		func() (*Figure, error) { return AblationNbFanout(ib, QuickNbFanout()) },
		func() (*Figure, error) { return AblationLocality(ib, QuickLocalityAblation()) },
		func() (*Figure, error) { return Scale(smokeScale()) },
	} {
		f, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := f.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if f.Name == "scale" {
			checkGolden(t, "testdata/scale_smoke.golden.json", b.Bytes())
			continue
		}
		path := "../../results/BENCH_" + f.Name + ".json"
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("figure %q differs from %s:\n%s", f.Name, path, b.Bytes())
		}
	}
}

// TestScaleSmokeSeries sanity-checks the scale figure's shape on the
// smoke config: both runtimes, both shapes, every requested rank count.
func TestScaleSmokeSeries(t *testing.T) {
	f, err := Scale(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ARMCI-MPI CCSD", "ARMCI-MPI fanout put", "ARMCI-MPI fanout get",
		"dartmpi CCSD", "dartmpi fanout put", "dartmpi fanout get",
	}
	for _, label := range want {
		s := f.Get(label)
		if s == nil {
			t.Errorf("series %q missing", label)
			continue
		}
		if len(s.X) != 1 || s.X[0] != 128 {
			t.Errorf("series %q sampled at %v, want [128]", label, s.X)
		}
		if s.Y[0] <= 0 {
			t.Errorf("series %q value %v, want > 0", label, s.Y[0])
		}
	}
}

// BenchmarkScale is the CI race-smoke entry point: one smoke-sized
// scale sweep per iteration, driving the engine, the CCSD proxy, and
// the fan-out shape under the race detector.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Scale(smokeScale()); err != nil {
			b.Fatal(err)
		}
	}
}
