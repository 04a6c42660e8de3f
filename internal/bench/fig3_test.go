package bench

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
)

// fig3Quick regenerates quick Fig. 3 on every platform, in the contig
// workload's order, and returns the panels' JSON one after another.
func fig3Quick(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	cfg := QuickFig3()
	cfg.Obs = rec
	var b bytes.Buffer
	for _, p := range platform.All() {
		f, err := Fig3(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestFig3GoldenAcrossGOMAXPROCS holds the contig workload's generator
// to a recording made by the sequential loop the sweep replaced (the
// parent commit of the sweep, before any code of it was touched): the
// quick panels of all four platforms are byte-identical at one, two and
// eight worker threads.
func TestFig3GoldenAcrossGOMAXPROCS(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		checkRecording(t, "testdata/fig3_quick.golden.json", fig3Quick(t, nil))
	})
}

// TestZeroPageAfterSweeps: a Fig. 3 or Fig. 4 probe reads a source it
// never wrote, so the accumulates of every concurrent job read mpi's
// one shared zero page, and none may write it. After a quick sweep of
// each, a store from a nil source still lands nothing but zeros.
func TestZeroPageAfterSweeps(t *testing.T) {
	fig3Quick(t, nil)
	fig4Quick(t, nil)
	b := bytes.Repeat([]byte{0xa5}, 3<<12) // past any page the kernels step by
	mpi.ReduceBytesF64(mpi.OpReplace, b, nil)
	for i, c := range b {
		if c != 0 {
			t.Fatalf("byte %d of a store from the zero page is %#x", i, c)
		}
	}
}

// TestFig3ObsGolden pins what a recorder attached to Fig. 3 collects:
// the figure, stats and PROF reports of the quick sweep are
// byte-identical to the ones the sequential loop wrote.
func TestFig3ObsGolden(t *testing.T) {
	rec := obs.New(obs.Options{Profile: true})
	checkRecording(t, "testdata/fig3_quick.golden.json", fig3Quick(t, rec))
	var stats, prof bytes.Buffer
	if err := rec.WriteStatsJSON(&stats); err != nil {
		t.Fatal(err)
	}
	if err := rec.Prof().WriteJSON(&prof); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, "testdata/fig3_quick.stats.golden.json", stats.Bytes())
	checkRecording(t, "testdata/fig3_quick.prof.golden.json", prof.Bytes())
}
