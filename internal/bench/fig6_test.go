package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/platform"
)

// TestFig6GoldenAcrossGOMAXPROCS holds the generator the ccsd workload
// times to a recording made by the sequential loop it replaced (the
// parent commit of the sweep): the quick ib panel with (T) is
// byte-identical at one, two and eight worker threads, so the check is
// sequential == parallel, never parallel == parallel.
func TestFig6GoldenAcrossGOMAXPROCS(t *testing.T) {
	ib := platform.Get(platform.InfiniBand)
	atProcs(t, func(t *testing.T, _ int) {
		f, err := Fig6(ib, QuickFig6(), true)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := f.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "testdata/fig6_quick-ib.golden.json", b.Bytes())
	})
}

// TestFig6SkipsOversizeCores pins what the rank cap does to a panel: a
// partly-skipped sweep keeps the points that fit, and a sweep with no
// point left is an error naming the platform and its cap.
func TestFig6SkipsOversizeCores(t *testing.T) {
	ib := platform.Get(platform.InfiniBand)
	cfg := QuickFig6()
	cfg.Cores = []int{4, ib.MaxRanks() + 1}
	f, err := Fig6(ib, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.X) != 1 || s.X[0] != 4 {
			t.Errorf("series %q sampled at %v, want [4]", s.Label, s.X)
		}
	}

	cfg.Cores = []int{ib.MaxRanks() + 1}
	_, err = Fig6(ib, cfg, false)
	if err == nil {
		t.Fatal("empty panel: want an error")
	}
	for _, want := range []string{ib.Name, fmt.Sprint(ib.MaxRanks())} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
