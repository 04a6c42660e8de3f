package harness

import (
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// dartWorkload drives every locality tier of the dartmpi runtime: rank
// 0 moves data to itself (self tier), to rank 1 (same node on the test
// platform's 2-core nodes), and to rank 2 (remote node), with rank 1
// issuing a large cross-node put that qualifies for leader staging.
func dartWorkload(t *testing.T, rt armci.Runtime) {
	addrs, err := rt.Malloc(32 * 1024)
	must(t, err)
	local := rt.MallocLocal(16 * 1024)
	switch rt.Rank() {
	case 0:
		must(t, rt.Put(local, addrs[0].Add(64), 1024)) // self
		must(t, rt.Put(local, addrs[1].Add(64), 1024)) // same node
		must(t, rt.Put(local, addrs[2].Add(64), 1024)) // remote
		must(t, rt.Get(addrs[1].Add(64), local, 1024))
		must(t, rt.Acc(armci.AccDbl, 2, local, addrs[1].Add(2048), 512))
	case 1:
		// Large enough to stage, from a non-leader origin.
		must(t, rt.Put(local, addrs[2].Add(4096), 16*1024))
		must(t, rt.Get(addrs[3].Add(4096), local, 16*1024))
	}
	rt.Barrier()
	must(t, rt.Free(addrs[rt.Rank()]))
}

// runDart executes dartWorkload under dartmpi with the given options
// and returns the recorder and the job.
func runDart(t *testing.T, opt armcimpi.Options) (*obs.Recorder, *Job) {
	t.Helper()
	rec := obs.New(obs.Options{})
	j, err := NewJobObs(TestPlatform(), 4, ImplDartMPI, opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Eng.Run(4, func(p *sim.Proc) { dartWorkload(t, j.Runtime(p)) }); err != nil {
		t.Fatal(err)
	}
	return rec, j
}

// TestDartNoShmForcesRMA asserts the NoShm ablation switch means the
// same thing under dartmpi as everywhere else: the same-node tier must
// collapse onto the RMA path, leaving rma.bytes.shm exactly zero, while
// the default configuration moves same-node traffic over shm.
func TestDartNoShmForcesRMA(t *testing.T) {
	opt := armcimpi.DefaultOptions()
	rec, j := runDart(t, opt)
	if shm := obs.Total(rec.Metrics().Counter(obs.CBytesShm)); shm == 0 {
		t.Error("default dartmpi moved no bytes over the shm path")
	}
	ops := func(c string) int64 { return obs.Total(rec.Metrics().Counter(c)) }
	if ops(obs.CRouteNode) == 0 || ops(obs.CRouteSelf) == 0 || ops(obs.CRouteRMA)+ops(obs.CRouteStaged) == 0 {
		t.Errorf("expected all tiers exercised: self=%d node=%d remote=%d",
			ops(obs.CRouteSelf), ops(obs.CRouteNode), ops(obs.CRouteRMA)+ops(obs.CRouteStaged))
	}

	opt.NoShm = true
	rec, j = runDart(t, opt)
	if shm := obs.Total(rec.Metrics().Counter(obs.CBytesShm)); shm != 0 {
		t.Errorf("rma.bytes.shm = %d under NoShm dartmpi, want 0", shm)
	}
	if ops(obs.CRouteSelf) != 0 || ops(obs.CRouteNode) != 0 {
		t.Errorf("near tiers used under NoShm: self=%d node=%d", ops(obs.CRouteSelf), ops(obs.CRouteNode))
	}
	if j.DartWorld.Staged != 0 {
		t.Errorf("leader staging ran under NoShm: %d", j.DartWorld.Staged)
	}
}

// TestDartLeaderStaging asserts the hierarchical path's threshold and
// ablation toggle: rank 1's 16 KiB cross-node transfers stage through
// its node leader by default, stop when NoLeaderStaging is set, and
// follow a custom StageThreshold.
func TestDartLeaderStaging(t *testing.T) {
	opt := armcimpi.DefaultOptions()
	rec, j := runDart(t, opt)
	if j.DartWorld.Staged == 0 {
		t.Error("no transfers staged through the node leader")
	}
	if got := obs.Total(rec.Metrics().Counter(obs.CDartStaged)); got != j.DartWorld.Staged {
		t.Errorf("dart.leader.staged counter %d != world counter %d", got, j.DartWorld.Staged)
	}
	if j.DartWorld.StagedBytes < 16*1024 {
		t.Errorf("staged bytes %d, want >= 16384", j.DartWorld.StagedBytes)
	}

	opt.NoLeaderStaging = true
	_, j = runDart(t, opt)
	if j.DartWorld.Staged != 0 {
		t.Errorf("staging ran with NoLeaderStaging: %d", j.DartWorld.Staged)
	}

	opt.NoLeaderStaging = false
	opt.StageThreshold = 64 * 1024 // above every transfer in the workload
	_, j = runDart(t, opt)
	if j.DartWorld.Staged != 0 {
		t.Errorf("staging ran below the threshold: %d", j.DartWorld.Staged)
	}
}
