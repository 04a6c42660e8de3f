package mpi

import (
	"runtime"
	"testing"
)

// TestWarmEpochAllocations pins what a warm epoch on the wire route
// costs the allocator: nothing. The MPI-2 epoch record, its target-side
// record, their range sets and the events of the Lock/Unlock handshake
// are the window's and are reopened by every Lock; an operation in
// flight is a record from the world's free list, an atomic included;
// lock-all keeps its per-target records and the request handles they
// answer for.
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
		// An atomic is one pooled record fired three times: at the
		// target, at its agent, and as the reply.
		{"lockall/fetch_and_op", true, func(win *Win, buf LocalBuf) error {
			_, err := win.FetchAndOp(OpSum, 1, 1, 0)
			return err
		}},
		{"lockall/compare_and_swap", true, func(win *Win, buf LocalBuf) error {
			_, err := win.CompareAndSwap(0, 0, 1, 8)
			return err
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

// TestWarmTypedCollectivesAllocateNothing pins the typed collectives
// at no temporaries: a warm allreduce or broadcast sends the bytes of
// the caller's slice, decodes into it, and hands every received body
// back to the pool. Five ranks, so the allreduce folds a remainder rank
// in and out as well. What a window sees is growth — a mailbox queue or
// a free list reaching a depth the warm-up did not — never a per-round
// object: the byte codecs this replaced made several per rank per call.
func TestWarmTypedCollectivesAllocateNothing(t *testing.T) {
	const rounds = 100
	var before, after runtime.MemStats
	runMPI(t, 5, func(r *Rank) {
		c := r.CommWorld()
		i64, f64 := make([]int64, 3), make([]float64, 3)
		round := func() {
			c.AllreduceI64(OpSum, i64)
			c.AllreduceF64(OpMax, f64)
			c.BcastI64(4, i64)
			c.BcastF64(1, f64)
		}
		round() // warm: pools and mailboxes grown
		c.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < rounds; i++ {
			round()
		}
		c.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if n := after.Mallocs - before.Mallocs; n > rounds/10 {
		t.Errorf("%d warm rounds of typed collectives on 5 ranks allocate %d objects, want none per round", rounds, n)
	}
}
