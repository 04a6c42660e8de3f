package mpi

import "testing"

// TestWarmEpochAllocations pins what a warm epoch on the wire route
// costs the allocator: nothing. The MPI-2 epoch record, its target-side
// record, their range sets and the events of the Lock/Unlock handshake
// are the window's and are reopened by every Lock; an operation in
// flight is a record from the world's free list; lock-all keeps its
// per-target records and the request handles they answer for.
func TestWarmEpochAllocations(t *testing.T) {
	const runs = 50
	ct := TypeContiguous(64)
	rows := []struct {
		name  string
		mpi3  bool
		epoch func(win *Win, buf LocalBuf) error
	}{
		{"mpi2/put", false, func(win *Win, buf LocalBuf) error {
			return lockOneUnlock(win, func() error { return win.Put(buf, 1, 0, ct) })
		}},
		{"mpi2/get", false, func(win *Win, buf LocalBuf) error {
			return lockOneUnlock(win, func() error { return win.Get(buf, 1, 0, ct) })
		}},
		{"mpi2/acc", false, func(win *Win, buf LocalBuf) error {
			return lockOneUnlock(win, func() error { return win.Accumulate(buf, OpSum, 1, 0, ct) })
		}},
		{"lockall/rput+rget+flush", true, func(win *Win, buf LocalBuf) error {
			put, err := win.RPut(buf, 1, 0, ct)
			if err != nil {
				return err
			}
			get, err := win.RGet(buf, 1, 64, ct)
			if err != nil {
				return err
			}
			WaitAllRMA([]*RMAReq{put, get})
			return win.Flush(1)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var allocs float64
			runMPI(t, 2, func(r *Rank) {
				if row.mpi3 {
					r.W.EnableMPI3()
				}
				win, err := WinCreate(r.CommWorld(), r.AllocMem(128))
				must(t, err)
				if r.ID() == 0 {
					buf := LocalBuf{Region: r.AllocMem(64), Type: ct}
					if row.mpi3 {
						must(t, win.LockAll())
					}
					must(t, row.epoch(win, buf)) // warm: records built, pools and heaps grown
					allocs = testing.AllocsPerRun(runs, func() { must(t, row.epoch(win, buf)) })
					if row.mpi3 {
						must(t, win.UnlockAll())
					}
				}
				must(t, win.Free())
			})
			if allocs > 0 {
				t.Errorf("a warm %s epoch allocates %.1f objects, want 0", row.name, allocs)
			}
		})
	}
}

func lockOneUnlock(win *Win, op func() error) error {
	if err := win.Lock(LockExclusive, 1); err != nil {
		return err
	}
	if err := op(); err != nil {
		return err
	}
	return win.Unlock(1)
}

// TestGatherReturnsEveryBody follows the payload pool across one
// gather-at-root: the root's own slot and every received body come from
// the pool, and GatherI64 hands each back once decoded.
func TestGatherReturnsEveryBody(t *testing.T) {
	ledger := watchBufs(t)
	var got []int64
	runMPI(t, 5, func(r *Rank) {
		if v := r.CommWorld().GatherI64(2, []int64{int64(10 * r.ID()), 1}); r.ID() == 2 {
			got = v
		}
	})
	if want := []int64{0, 1, 10, 1, 20, 1, 30, 1, 40, 1}; len(got) != len(want) {
		t.Fatalf("gathered %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gathered %v, want %v", got, want)
			}
		}
	}
	if ledger.gets != 5 {
		t.Errorf("%d bodies drawn from the pool, want 5 (one per rank)", ledger.gets)
	}
	if n := len(ledger.out); n != 0 {
		t.Errorf("%d gathered bodies never came back", n)
	}
}
