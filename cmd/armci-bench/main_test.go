package main

import (
	"strings"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestInstallSched covers the scheduler flag surface, which is -shards
// alone: a negative count fails fast — before any job is built — and a
// valid one becomes the harness-wide shard cap.
func TestInstallSched(t *testing.T) {
	defer func() { harness.Shards = 0 }()

	if err := installSched(-1); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("negative shard count: err = %v, want one naming -shards", err)
	}
	if harness.Shards != 0 {
		t.Error("failed installSched still installed a shard count")
	}
	if err := installSched(8); err != nil || harness.Shards != 8 {
		t.Errorf("installSched(8): err = %v, Shards = %d, want nil/8", err, harness.Shards)
	}
	if err := installSched(0); err != nil || harness.Shards != 0 {
		t.Errorf("default flags: err = %v, Shards = %d, want nil/0", err, harness.Shards)
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
