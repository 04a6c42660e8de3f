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
// and returns the recorder.
func runDart(t *testing.T, opt armcimpi.Options) *obs.Recorder {
	t.Helper()
	rec := obs.New(obs.Options{})
	j, err := NewJobObs(TestPlatform(), 4, ImplDartMPI, opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Eng.Run(4, func(p *sim.Proc) { dartWorkload(t, j.Runtime(p)) }); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDartNoShmForcesRMA asserts the NoShm ablation switch means the
// same thing under dartmpi as everywhere else: the same-node tier must
// collapse onto the RMA path, leaving rma.bytes.shm exactly zero, while
// the default configuration moves same-node traffic over shm.
func TestDartNoShmForcesRMA(t *testing.T) {
	opt := armcimpi.DefaultOptions()
	rec := runDart(t, opt)
	if shm := obs.Total(rec.Stats().Counters[obs.CBytesShm]); shm == 0 {
		t.Error("default dartmpi moved no bytes over the shm path")
	}
	ops := func(c string) int64 { return obs.Total(rec.Stats().Counters[c]) }
	if ops(obs.CRouteNode) == 0 || ops(obs.CRouteSelf) == 0 || ops(obs.CRouteRMA)+ops(obs.CRouteStaged) == 0 {
		t.Errorf("expected all tiers exercised: self=%d node=%d remote=%d",
			ops(obs.CRouteSelf), ops(obs.CRouteNode), ops(obs.CRouteRMA)+ops(obs.CRouteStaged))
	}

	opt.NoShm = true
	rec = runDart(t, opt)
	if shm := obs.Total(rec.Stats().Counters[obs.CBytesShm]); shm != 0 {
		t.Errorf("rma.bytes.shm = %d under NoShm dartmpi, want 0", shm)
	}
	if ops(obs.CRouteSelf) != 0 || ops(obs.CRouteNode) != 0 {
		t.Errorf("near tiers used under NoShm: self=%d node=%d", ops(obs.CRouteSelf), ops(obs.CRouteNode))
	}
	if n := ops(obs.CDartStaged); n != 0 {
		t.Errorf("leader staging ran under NoShm: %d", n)
	}
}

// TestDartLeaderStaging asserts the hierarchical path's threshold and
// ablation toggle: rank 1's 16 KiB cross-node transfers stage through
// its node leader by default, stop when NoLeaderStaging is set, and
// follow a custom StageThreshold.
func TestDartLeaderStaging(t *testing.T) {
	staged := func(opt armcimpi.Options) (events, bytes int64) {
		m := runDart(t, opt).Stats()
		return obs.Total(m.Counters[obs.CDartStaged]), obs.Total(m.Counters[obs.CDartStagedBytes])
	}
	opt := armcimpi.DefaultOptions()
	n, b := staged(opt)
	if n == 0 {
		t.Error("no transfers staged through the node leader")
	}
	if b < 16*1024 {
		t.Errorf("staged bytes %d, want >= 16384", b)
	}

	opt.NoLeaderStaging = true
	if n, _ := staged(opt); n != 0 {
		t.Errorf("staging ran with NoLeaderStaging: %d", n)
	}

	opt.NoLeaderStaging = false
	opt.StageThreshold = 64 * 1024 // above every transfer in the workload
	if n, _ := staged(opt); n != 0 {
		t.Errorf("staging ran below the threshold: %d", n)
	}
}

// TestDartManyAllocsSpanIndex holds dartmpi's address resolution to
// many live allocations: with dozens of them, of varied sizes, ops
// addressed into the middle of each one must resolve to the right
// allocation and offset on every locality tier, out-of-order frees must
// keep the index consistent down to empty, and a group allocation cycle
// must leave no GMR or mutex set behind.
func TestDartManyAllocsSpanIndex(t *testing.T) {
	const nAlloc = 48
	rec := obs.New(obs.Options{})
	j, err := NewJobObs(TestPlatform(), 6, ImplDartMPI, armcimpi.DefaultOptions(), rec)
	if err != nil {
		t.Fatal(err)
	}

	err = j.Eng.Run(6, func(p *sim.Proc) {
		rt := j.Runtime(p)
		all := make([][]armci.Addr, nAlloc)
		for k := range all {
			addrs, err := rt.Malloc(96 + 32*(k%5))
			must(t, err)
			all[k] = addrs
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			if n := j.AMWorld.NumGMRs(); n != nAlloc {
				t.Errorf("live allocs = %d, want %d", n, nAlloc)
			}
			src := rt.MallocLocal(64)
			dst := rt.MallocLocal(64)
			// Write a distinct pattern into the middle of every
			// allocation: rank 1 is same-node, ranks 2 and 3 remote on
			// the test platform's 2-core nodes, so the lookup is
			// exercised on every tier.
			for k := 0; k < nAlloc; k++ {
				target := 1 + k%3
				fill(t, rt, src, 64, func(i int) byte { return byte(k*7 + i) })
				must(t, rt.Put(src, all[k][target].Add(8*(k%4)), 64))
			}
			// Read back in reverse order; a wrong span resolution
			// returns another allocation's bytes.
			for k := nAlloc - 1; k >= 0; k-- {
				target := 1 + k%3
				must(t, rt.Get(all[k][target].Add(8*(k%4)), dst, 64))
				b, err := rt.LocalBytes(dst, 64)
				must(t, err)
				for i := range b {
					if b[i] != byte(k*7+i) {
						t.Fatalf("alloc %d byte %d = %d, want %d", k, i, b[i], byte(k*7+i))
					}
				}
			}
			must(t, rt.FreeLocal(src))
			must(t, rt.FreeLocal(dst))
		}
		rt.Barrier()
		// Free out of order — evens ascending, then odds descending —
		// so unregister removes from the middle of the span lists.
		for k := 0; k < nAlloc; k += 2 {
			must(t, rt.Free(all[k][rt.Rank()]))
		}
		for k := nAlloc - 1; k >= 1; k -= 2 {
			must(t, rt.Free(all[k][rt.Rank()]))
		}
		g, err := rt.GroupCreateCollective([]int{1, 2, 4})
		must(t, err)
		if g != nil {
			addrs, err := rt.MallocGroup(g, 2048)
			must(t, err)
			must(t, rt.FreeGroup(g, addrs[g.RankOf(rt.Rank())]))
		}
		rt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := j.AMWorld.NumGMRs(); n != 0 {
		t.Errorf("live GMRs at end = %d, want 0", n)
	}
	if n := j.AMWorld.NumMutexSets(); n != 0 {
		t.Errorf("live mutex sets at end = %d, want 0", n)
	}
}
