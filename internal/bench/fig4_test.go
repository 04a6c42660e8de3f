package bench

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// fig4Quick regenerates quick Fig. 4 — every platform, op and segment
// size, in the strided workload's order — and returns the panels' JSON
// one after another.
func fig4Quick(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	cfg := QuickFig4()
	cfg.Obs = rec
	var b bytes.Buffer
	for _, p := range platform.All() {
		for _, seg := range cfg.SegSizes {
			for _, op := range []ContigOp{OpGet, OpAcc, OpPut} {
				f, err := Fig4(p, op, seg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Bytes()
}

// TestFig4GoldenAcrossGOMAXPROCS holds the generator the strided
// workload times to a recording made by the sequential loop it replaced
// (the parent commit of the sweep, before any code of it was touched):
// all 24 quick panels are byte-identical at one, two and eight worker
// threads, so the check is sequential == parallel, never parallel ==
// parallel.
func TestFig4GoldenAcrossGOMAXPROCS(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		checkRecording(t, "testdata/fig4_quick.golden.json", fig4Quick(t, nil))
	})
}

// checkRecording is checkGolden for a recording of the sequential
// loop: -update never rewrites it, so it stays what that loop wrote.
func checkRecording(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from the recording %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFig4ObsGolden pins what a recorder attached to Fig. 4 collects:
// the figure, stats and PROF reports of the quick sweep are
// byte-identical to the ones the sequential loop wrote. (A recorder
// runs the sweep on one worker whatever GOMAXPROCS is; CI runs this
// test at 1, 2 and 8 threads.)
func TestFig4ObsGolden(t *testing.T) {
	rec := obs.New(obs.Options{Profile: true})
	checkRecording(t, "testdata/fig4_quick.golden.json", fig4Quick(t, rec))
	var stats, prof bytes.Buffer
	if err := rec.WriteStatsJSON(&stats); err != nil {
		t.Fatal(err)
	}
	if err := rec.Prof().WriteJSON(&prof); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, "testdata/fig4_quick.stats.golden.json", stats.Bytes())
	checkRecording(t, "testdata/fig4_quick.prof.golden.json", prof.Bytes())
}
