package main

import (
	"strings"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestObsFlagsNeedARecordingFigure: an observability flag on a figure
// whose jobs take no recorder used to print an empty report and exit 0;
// it is an error before anything runs, naming the figures that record.
// A recording figure passes the check (it would go on to run, so only
// the check is called for those).
func TestObsFlagsNeedARecordingFigure(t *testing.T) {
	for _, c := range []struct {
		fig                      string
		stats, profile, critpath bool
		trace                    string
	}{
		{fig: "ablations", profile: true},
		{fig: "table2", stats: true},
		{fig: "ablation-nbfanout", critpath: true},
		{fig: "table2", trace: "t.json"},
		{fig: "ablations", stats: true, profile: true, critpath: true, trace: "t.json"},
	} {
		err := run(c.fig, "", "", true, c.stats, c.profile, c.critpath, c.trace, "")
		if err == nil || !strings.Contains(err.Error(), "-fig "+c.fig+" records nothing") ||
			!strings.Contains(err.Error(), "ablation-locality") {
			t.Errorf("%+v: err = %v, want one naming the figure and those that record", c, err)
		}
	}
	for _, fig := range append([]string{"all"}, recording...) {
		if err := checkObsFigure(fig, true, true, true, "t.json"); err != nil {
			t.Errorf("-fig %s with every observability flag: %v", fig, err)
		}
	}
	if err := checkObsFigure("table2", false, false, false, ""); err != nil {
		t.Errorf("no observability flag: %v", err)
	}
}

// TestInstallTweak covers the runtime-tuning flag surface: no flags
// installs no hook, bad method names are rejected before any sweep
// runs, and valid flags become an Options hook every benchmark job
// applies.
func TestInstallTweak(t *testing.T) {
	defer func() { bench.Tweak = nil }()

	bench.Tweak = nil
	if err := installTweak(-1, "", ""); err != nil {
		t.Fatalf("no flags: %v", err)
	}
	if bench.Tweak != nil {
		t.Fatal("no flags installed a Tweak hook")
	}

	for _, bad := range []struct{ strided, iov string }{
		{"bogus", ""},
		{"", "bogus"},
		{"", "strided"}, // not a method name at all
	} {
		bench.Tweak = nil
		if err := installTweak(-1, bad.strided, bad.iov); err == nil {
			t.Errorf("installTweak(-1, %q, %q) accepted an unknown method",
				bad.strided, bad.iov)
		}
		if bench.Tweak != nil {
			t.Errorf("failed installTweak(%q, %q) still installed a hook",
				bad.strided, bad.iov)
		}
	}

	bench.Tweak = nil
	if err := installTweak(16, "batched", "conservative"); err != nil {
		t.Fatal(err)
	}
	if bench.Tweak == nil {
		t.Fatal("valid flags installed no Tweak hook")
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.BatchSize != 16 {
		t.Errorf("BatchSize = %d, want 16", opt.BatchSize)
	}
	if opt.StridedMethod != armcimpi.MethodBatched {
		t.Errorf("StridedMethod = %s, want batched", opt.StridedMethod)
	}
	if opt.IOVMethod != armcimpi.MethodConservative {
		t.Errorf("IOVMethod = %s, want conservative", opt.IOVMethod)
	}

	// A partial tweak leaves the other knobs at their defaults.
	def := armcimpi.DefaultOptions()
	if err := installTweak(-1, "iov-direct", ""); err != nil {
		t.Fatal(err)
	}
	opt = armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.StridedMethod != armcimpi.MethodIOVDirect {
		t.Errorf("StridedMethod = %s, want iov-direct", opt.StridedMethod)
	}
	if opt.IOVMethod != def.IOVMethod || opt.BatchSize != def.BatchSize {
		t.Errorf("partial tweak disturbed other options: iov=%s batch=%d",
			opt.IOVMethod, opt.BatchSize)
	}
}

// TestTweakReachesDartRemoteTier asserts the -strided-method and
// -iov-method flags flow through the shared Options into dartmpi's
// routing decisions: the wire tier of the locality runtime must compile
// with the method the flag selected, since both runtimes now resolve
// methods through the one engine decision layer.
func TestTweakReachesDartRemoteTier(t *testing.T) {
	defer func() { bench.Tweak = nil }()
	if err := installTweak(-1, "conservative", "batched"); err != nil {
		t.Fatal(err)
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)

	j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplDartMPI, opt)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Eng.Run(4, func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(4096)
		if err != nil {
			t.Error(err)
			return
		}
		local := rt.MallocLocal(4096)
		if rt.Rank() == 1 {
			pr := rt.(interface {
				RouteOf(armcimpi.RouteRequest) armcimpi.RouteDecision
			})
			d := pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassPut, Shape: armcimpi.ShapeStrided,
				Local: local, Remote: addrs[2], Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodConservative {
				t.Errorf("remote strided: route=%s method=%s, want rma/conservative",
					d.Route, d.Method)
			}
			d = pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassGet, Shape: armcimpi.ShapeIOV,
				Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodBatched {
				t.Errorf("remote IOV: route=%s method=%s, want rma/batched",
					d.Route, d.Method)
			}
		}
		rt.Barrier()
		if err := rt.FreeLocal(local); err != nil {
			t.Error(err)
		}
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
