package mpi

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// withWin runs body on n ranks after collectively creating a window of
// winBytes bytes per rank.
func withWin(t *testing.T, n, winBytes int, body func(r *Rank, win *Win, reg *fabric.Region)) *World {
	t.Helper()
	return runMPI(t, n, func(r *Rank) {
		reg := r.AllocMem(winBytes)
		win, err := WinCreate(r.CommWorld(), reg)
		if err != nil {
			t.Errorf("WinCreate: %v", err)
			return
		}
		body(r, win, reg)
		if err := win.Free(); err != nil {
			t.Errorf("Win.Free: %v", err)
		}
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutThenGetRoundTrip(t *testing.T) {
	withWin(t, 2, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			src := r.AllocMem(16)
			copy(src.Backing(), []byte("hello, window!!!"))
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 1, 8, TypeContiguous(16)))
			must(t, win.Unlock(1))

			dst := r.AllocMem(16)
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(16)}, 1, 8, TypeContiguous(16)))
			must(t, win.Unlock(1))
			if string(dst.Backing()) != "hello, window!!!" {
				t.Errorf("round trip got %q", dst.Backing())
			}
		}
		win.Comm().Barrier()
		if r.ID() == 1 && string(reg.Backing()[8:24]) != "hello, window!!!" {
			t.Errorf("target memory = %q", reg.Backing()[8:24])
		}
	})
}

func TestGetNotVisibleBeforeUnlock(t *testing.T) {
	withWin(t, 2, 8, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 1 {
			copy(reg.Backing(), []byte("ABCDEFGH"))
		}
		win.Comm().Barrier()
		if r.ID() == 0 {
			dst := r.AllocMem(8)
			must(t, win.Lock(LockShared, 1))
			must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(8)}, 1, 0, TypeContiguous(8)))
			// Nonblocking: data need not be here yet (it isn't, since
			// delivery takes latency).
			if string(dst.Backing()) == "ABCDEFGH" {
				t.Log("data arrived early; acceptable but unexpected with nonzero latency")
			}
			must(t, win.Unlock(1))
			if string(dst.Backing()) != "ABCDEFGH" {
				t.Errorf("after unlock: %q", dst.Backing())
			}
		}
	})
}

func TestAccumulateSums(t *testing.T) {
	withWin(t, 3, 32, func(r *Rank, win *Win, reg *fabric.Region) {
		// All ranks accumulate 4 float64s of value rank+1 into rank 0.
		src := r.AllocMem(32)
		vals := []float64{float64(r.ID() + 1), 1, 2, 3}
		copy(src.Backing(), f64sToBytes(vals))
		must(t, win.Lock(LockExclusive, 0))
		must(t, win.Accumulate(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(32)}, OpSum, 0, 0, TypeContiguous(32)))
		must(t, win.Unlock(0))
		win.Comm().Barrier()
		if r.ID() == 0 {
			got := bytesToF64s(reg.Backing())
			if got[0] != 1+2+3 || got[1] != 3 || got[3] != 9 {
				t.Errorf("accumulated = %v", got)
			}
		}
	})
}

func TestAccumulateReplaceActsAsPut(t *testing.T) {
	withWin(t, 2, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			src := r.AllocMem(16)
			copy(src.Backing(), f64sToBytes([]float64{4.5, -2}))
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Accumulate(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, OpReplace, 1, 0, TypeContiguous(16)))
			must(t, win.Unlock(1))
		}
		win.Comm().Barrier()
		if r.ID() == 1 {
			got := bytesToF64s(reg.Backing())
			if got[0] != 4.5 || got[1] != -2 {
				t.Errorf("replace = %v", got)
			}
		}
	})
}

func TestStridedPutWithDatatypes(t *testing.T) {
	withWin(t, 2, 100, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			// Origin: 3 blocks of 4 bytes, stride 8. Target: 3 blocks of
			// 4 bytes, stride 10, at displacement 5.
			src := r.AllocMem(24)
			for i := range src.Backing() {
				src.Backing()[i] = byte(i)
			}
			ot := TypeVector(3, 4, 8)
			tt := TypeVector(3, 4, 10)
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: ot}, 1, 5, tt))
			must(t, win.Unlock(1))
		}
		win.Comm().Barrier()
		if r.ID() == 1 {
			// Origin bytes at 0-3, 8-11, 16-19 land at 5-8, 15-18, 25-28.
			wantPairs := [][2]int{{5, 0}, {15, 8}, {25, 16}}
			for _, wp := range wantPairs {
				for k := 0; k < 4; k++ {
					if reg.Backing()[wp[0]+k] != byte(wp[1]+k) {
						t.Fatalf("byte at %d = %d, want %d", wp[0]+k, reg.Backing()[wp[0]+k], wp[1]+k)
					}
				}
			}
			if reg.Backing()[9] != 0 || reg.Backing()[4] != 0 {
				t.Error("gap bytes were written")
			}
		}
	})
}

func TestLockRequiresNoOpenEpoch(t *testing.T) {
	withWin(t, 3, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			must(t, win.Lock(LockExclusive, 1))
			if err := win.Lock(LockExclusive, 2); err == nil {
				t.Error("second lock on the same window accepted (MPI-2 forbids)")
			}
			must(t, win.Unlock(1))
		}
	})
}

func TestOpsRequireEpoch(t *testing.T) {
	withWin(t, 2, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			src := r.AllocMem(8)
			err := win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 1, 0, TypeContiguous(8))
			if err == nil {
				t.Error("Put without epoch accepted")
			}
		}
	})
}

func TestUnlockWithoutLockFails(t *testing.T) {
	withWin(t, 2, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			if err := win.Unlock(1); err == nil {
				t.Error("Unlock without Lock accepted")
			}
		}
	})
}

func TestExclusiveLockSerializesAccess(t *testing.T) {
	// Both ranks 0 and 1 increment a counter at rank 2 under exclusive
	// locks using get+put in separate epochs... that is racy; instead
	// they each do read-modify-write *within one* exclusive epoch using
	// separate non-overlapping slots and we verify lock wait times
	// serialize.
	var holds [2][2]sim.Time
	withWin(t, 3, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() < 2 {
			src := r.AllocMem(8)
			must(t, win.Lock(LockExclusive, 2))
			start := r.P.Now()
			r.P.Elapse(50 * sim.Microsecond) // hold the lock a while
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 2, r.ID()*8, TypeContiguous(8)))
			must(t, win.Unlock(2))
			holds[r.ID()] = [2]sim.Time{start, r.P.Now()}
		}
	})
	a, b := holds[0], holds[1]
	if a[0] > b[0] {
		a, b = b, a
	}
	if b[0] < a[1]-sim.Microsecond*5 {
		t.Errorf("exclusive epochs overlap: [%v,%v] and [%v,%v]", a[0], a[1], b[0], b[1])
	}
}

func TestSharedLocksOverlap(t *testing.T) {
	// Two shared-lock readers should hold epochs concurrently.
	var start, end [2]sim.Time
	withWin(t, 3, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() < 2 {
			dst := r.AllocMem(8)
			must(t, win.Lock(LockShared, 2))
			start[r.ID()] = r.P.Now()
			r.P.Elapse(100 * sim.Microsecond)
			must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(8)}, 2, 0, TypeContiguous(8)))
			must(t, win.Unlock(2))
			end[r.ID()] = r.P.Now()
		}
	})
	// Overlap: each started before the other ended.
	if !(start[0] < end[1] && start[1] < end[0]) {
		t.Errorf("shared epochs did not overlap: [%v,%v] vs [%v,%v]", start[0], end[0], start[1], end[1])
	}
}

func TestConflictingOpsInEpochRejected(t *testing.T) {
	withWin(t, 2, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() != 0 {
			return
		}
		src := r.AllocMem(16)
		must(t, win.Lock(LockExclusive, 1))
		must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 1, 0, TypeContiguous(16)))
		// Overlapping put in the same epoch: conflicting.
		err := win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 1, 8, TypeContiguous(16))
		if err == nil || !strings.Contains(err.Error(), "conflicting") {
			t.Errorf("overlapping puts accepted: %v", err)
		}
		// Get overlapping the put: also conflicting.
		err = win.Get(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 1, 4, TypeContiguous(16))
		if err == nil {
			t.Error("get overlapping put accepted")
		}
		must(t, win.Unlock(1))
	})
}

func TestNonConflictingOpsInEpochAllowed(t *testing.T) {
	withWin(t, 2, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() != 0 {
			return
		}
		src := r.AllocMem(32)
		must(t, win.Lock(LockExclusive, 1))
		must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 1, 0, TypeContiguous(8)))
		must(t, win.Put(LocalBuf{Region: src, Off: 8, Type: TypeContiguous(8)}, 1, 8, TypeContiguous(8)))
		must(t, win.Get(LocalBuf{Region: src, Off: 16, Type: TypeContiguous(8)}, 1, 16, TypeContiguous(8)))
		must(t, win.Unlock(1))
	})
}

// TestEpochConflictVerdicts is the same-epoch conflict rule as a table:
// each row issues ops into one exclusive epoch, and the last one must be
// accepted or rejected with exactly the error text the linear scan
// words — the index finds a conflict, the first one in issue order is
// the one named.
func TestEpochConflictVerdicts(t *testing.T) {
	type op struct {
		kind   opKind
		red    Op
		lo, hi int
	}
	disjoint := make([]op, 1024) // a batched epoch's ascending segments
	for i := range disjoint {
		disjoint[i] = op{opPut, OpReplace, 16 * i, 16*i + 8}
	}
	descending := make([]op, 64)
	for i := range descending {
		descending[i] = op{opPut, OpReplace, 16 * (63 - i), 16*(63-i) + 16}
	}
	rows := []struct {
		name string
		ops  []op
		want string // "" accepts the last op
	}{
		{"same-op acc overlap", []op{{opAcc, OpSum, 0, 16}, {opAcc, OpSum, 8, 24}}, ""},
		{"get/get overlap", []op{{opGet, OpNoOp, 0, 16}, {opGet, OpNoOp, 8, 24}}, ""},
		{"put/get overlap", []op{{opPut, OpReplace, 0, 16}, {opGet, OpNoOp, 4, 20}},
			"mpi: conflicting RMA operations in one epoch at target 1: [0,16) Put vs [4,20) Get"},
		{"acc ops differ", []op{{opAcc, OpSum, 0, 16}, {opAcc, OpMax, 8, 24}},
			"mpi: conflicting RMA operations in one epoch at target 1: [0,16) Accumulate vs [8,24) Accumulate"},
		{"acc after put", []op{{opPut, OpReplace, 32, 48}, {opAcc, OpSum, 0, 8}, {opAcc, OpSum, 40, 44}},
			"mpi: conflicting RMA operations in one epoch at target 1: [32,48) Put vs [40,44) Accumulate"},
		{"first conflict in issue order", []op{{opGet, OpNoOp, 64, 80}, {opGet, OpNoOp, 0, 16}, {opGet, OpNoOp, 8, 72}, {opPut, OpReplace, 12, 66}},
			"mpi: conflicting RMA operations in one epoch at target 1: [64,80) Get vs [12,66) Put"},
		{"1024-op disjoint epoch", disjoint, ""},
		{"disjoint descending", descending, ""},
		{"touching ranges", []op{{opPut, OpReplace, 0, 8}, {opPut, OpReplace, 8, 16}, {opGet, OpNoOp, 16, 24}}, ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			withWin(t, 2, 16*1024, func(r *Rank, win *Win, reg *fabric.Region) {
				if r.ID() != 0 {
					return
				}
				src := r.AllocMem(16 * 1024)
				must(t, win.Lock(LockExclusive, 1))
				var err error
				for i, o := range row.ops {
					ct := TypeContiguous(o.hi - o.lo)
					err = win.issueErr(rmaOp{kind: o.kind, op: o.red, buf: LocalBuf{Region: src, Type: ct}, target: 1, at: LocalBuf{Off: o.lo, Type: ct}})
					if err != nil && i < len(row.ops)-1 {
						t.Fatalf("op %d rejected: %v", i, err)
					}
				}
				switch {
				case row.want == "" && err != nil:
					t.Errorf("rejected: %v", err)
				case row.want != "" && (err == nil || err.Error() != row.want):
					t.Errorf("got %v, want %q", err, row.want)
				}
				must(t, win.Unlock(1))
			})
		})
	}
}

func TestSameOpAccumulatesMayOverlap(t *testing.T) {
	withWin(t, 2, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() != 0 {
			return
		}
		src := r.AllocMem(16)
		copy(src.Backing(), f64sToBytes([]float64{1, 1}))
		must(t, win.Lock(LockExclusive, 1))
		must(t, win.Accumulate(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, OpSum, 1, 0, TypeContiguous(16)))
		must(t, win.Accumulate(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, OpSum, 1, 0, TypeContiguous(16)))
		must(t, win.Unlock(1))
		dst := r.AllocMem(16)
		must(t, win.Lock(LockShared, 1))
		must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(16)}, 1, 0, TypeContiguous(16)))
		must(t, win.Unlock(1))
		got := bytesToF64s(dst.Backing())
		if got[0] != 2 || got[1] != 2 {
			t.Errorf("double accumulate = %v", got)
		}
	})
}

func TestAccessOutsideWindowRejected(t *testing.T) {
	// Every kind is stopped at issue, on both routes: the same error, no
	// virtual time charged, and nothing left behind in the window.
	big := TypeContiguous(32)
	cases := []struct {
		name  string
		issue func(win *Win, src *fabric.Region) error
	}{
		{"put", func(win *Win, src *fabric.Region) error {
			return win.Put(LocalBuf{Region: src, Type: big}, 1, 0, big)
		}},
		{"fetch-and-op", func(win *Win, _ *fabric.Region) error {
			_, err := win.FetchAndOp(OpSum, 1, 1, 12) // [12,20) of 16
			return err
		}},
		{"compare-and-swap", func(win *Win, _ *fabric.Region) error {
			_, err := win.CompareAndSwap(0, 1, 1, 16)
			return err
		}},
	}
	for _, create := range []func(*Comm, *fabric.Region) (*Win, error){WinCreate, WinCreateShared} {
		runMPI(t, 2, func(r *Rank) {
			r.W.EnableMPI3()
			win, err := create(r.CommWorld(), r.AllocMem(16))
			must(t, err)
			if r.ID() == 0 {
				src := r.AllocMem(32)
				must(t, win.Lock(LockExclusive, 1))
				for _, tc := range cases {
					t0 := r.P.Now()
					err := tc.issue(win, src)
					if err == nil || !strings.Contains(err.Error(), "outside window") {
						t.Errorf("shared=%v: %s past window end: %v", win.Shared(), tc.name, err)
					}
					if d := r.P.Now() - t0; d != 0 {
						t.Errorf("shared=%v: rejected %s charged %v", win.Shared(), tc.name, d)
					}
				}
				old, err := win.FetchAndOp(OpSum, 5, 1, 8)
				if err != nil || old != 0 {
					t.Errorf("shared=%v: in-window atomic after the rejections = %d, %v", win.Shared(), old, err)
				}
				must(t, win.Unlock(1))
			}
			must(t, win.Free())
		})
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	withWin(t, 2, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() != 0 {
			return
		}
		src := r.AllocMem(32)
		must(t, win.Lock(LockExclusive, 1))
		if err := win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 1, 0, TypeContiguous(8)); err == nil {
			t.Error("origin/target size mismatch accepted")
		}
		must(t, win.Unlock(1))
	})
}

func TestEpochCompletionSemantics(t *testing.T) {
	// Unlock must not return before the transferred data is in place.
	withWin(t, 2, 1<<20, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			src := r.AllocMem(1 << 20)
			for i := range src.Backing() {
				src.Backing()[i] = byte(i * 31)
			}
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(1 << 20)}, 1, 0, TypeContiguous(1<<20)))
			must(t, win.Unlock(1))
			// Immediately after unlock the remote memory is final:
			// verify through a fresh get.
			dst := r.AllocMem(1 << 20)
			must(t, win.Lock(LockShared, 1))
			must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(1 << 20)}, 1, 0, TypeContiguous(1<<20)))
			must(t, win.Unlock(1))
			for i := 0; i < len(dst.Backing()); i += 4097 {
				if dst.Backing()[i] != byte(i*31) {
					t.Fatalf("byte %d = %d, want %d", i, dst.Backing()[i], byte(i*31))
				}
			}
		}
	})
}

func TestWindowCountersAdvance(t *testing.T) {
	w := withWin(t, 2, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 0 {
			src := r.AllocMem(8)
			must(t, win.Lock(LockExclusive, 1))
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 1, 0, TypeContiguous(8)))
			must(t, win.Unlock(1))
		}
	})
	if w.Epochs == 0 || w.RMAOps == 0 {
		t.Errorf("counters: epochs=%d rmaops=%d", w.Epochs, w.RMAOps)
	}
}

func TestMPI3RequiresEnable(t *testing.T) {
	withWin(t, 2, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() != 0 {
			return
		}
		if err := win.LockAll(); err == nil {
			t.Error("LockAll without MPI-3 accepted")
		}
		if _, err := win.FetchAndOp(OpSum, 1, 1, 0); err == nil {
			t.Error("FetchAndOp without MPI-3 accepted")
		}
	})
}

func TestMPI3FetchAndOp(t *testing.T) {
	runMPI(t, 3, func(r *Rank) {
		r.W.EnableMPI3()
		reg := r.AllocMem(16)
		win, err := WinCreate(r.CommWorld(), reg)
		must(t, err)
		must(t, win.LockAll())
		// All ranks add their (rank+1) to the counter at rank 0.
		old, err := win.FetchAndOp(OpSum, int64(r.ID()+1), 0, 0)
		must(t, err)
		if old < 0 || old > 6 {
			t.Errorf("old value out of range: %d", old)
		}
		must(t, win.UnlockAll())
		win.Comm().Barrier()
		if r.ID() == 0 {
			got := bytesToI64s(reg.Backing()[:8])[0]
			if got != 1+2+3 {
				t.Errorf("counter = %d, want 6", got)
			}
		}
		must(t, win.Free())
	})
}

func TestMPI3FetchAndOpAtomicity(t *testing.T) {
	// Every rank increments by 1 repeatedly; the set of observed old
	// values must be exactly 0..total-1 (each seen once).
	const per = 5
	seen := map[int64]int{}
	runMPI(t, 4, func(r *Rank) {
		r.W.EnableMPI3()
		reg := r.AllocMem(8)
		win, err := WinCreate(r.CommWorld(), reg)
		must(t, err)
		must(t, win.LockAll())
		for i := 0; i < per; i++ {
			old, err := win.FetchAndOp(OpSum, 1, 0, 0)
			must(t, err)
			seen[old]++
		}
		must(t, win.UnlockAll())
		must(t, win.Free())
	})
	if len(seen) != 4*per {
		t.Fatalf("observed %d distinct old values, want %d", len(seen), 4*per)
	}
	for v, n := range seen {
		if n != 1 || v < 0 || v >= 4*per {
			t.Fatalf("old value %d seen %d times", v, n)
		}
	}
}

func TestMPI3CompareAndSwap(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		r.W.EnableMPI3()
		reg := r.AllocMem(8)
		win, err := WinCreate(r.CommWorld(), reg)
		must(t, err)
		if r.ID() == 0 {
			must(t, win.LockAll())
			old, err := win.CompareAndSwap(0, 42, 1, 0)
			must(t, err)
			if old != 0 {
				t.Errorf("first CAS old = %d", old)
			}
			old, err = win.CompareAndSwap(0, 99, 1, 0) // should fail: value is 42
			must(t, err)
			if old != 42 {
				t.Errorf("second CAS old = %d, want 42", old)
			}
			must(t, win.UnlockAll())
		}
		win.Comm().Barrier()
		if r.ID() == 1 {
			got := bytesToI64s(reg.Backing())[0]
			if got != 42 {
				t.Errorf("value = %d, want 42 (failed CAS must not write)", got)
			}
		}
		must(t, win.Free())
	})
}

func TestMPI3RPutRGetFlush(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		r.W.EnableMPI3()
		reg := r.AllocMem(64)
		win, err := WinCreate(r.CommWorld(), reg)
		must(t, err)
		if r.ID() == 0 {
			src := r.AllocMem(8)
			copy(src.Backing(), []byte("RMA3!!!!"))
			must(t, win.LockAll())
			t8 := TypeContiguous(8)
			req, err := win.RPut(LocalBuf{Region: src, Off: 0, Type: t8}, 1, 0, t8)
			must(t, err)
			req.Wait()
			// Lock-all is an open access epoch like any other: the window
			// cannot be freed under it. (Free is collective; only the
			// rejection keeps this rank out of its barrier.)
			if err := win.Free(); err == nil || !strings.Contains(err.Error(), "lock-all") {
				t.Errorf("Free in lock-all mode = %v", err)
			}
			// A target outside the window is an error, never an index:
			// with a tracer attached the flush span names the target.
			for _, rec := range []*obs.Recorder{nil, obs.New(obs.Options{Trace: true})} {
				if rec != nil {
					rec.BeginJob("flush", r.W.M.Eng, 2)
				}
				r.W.Obs = rec
				if err := win.Flush(7); err == nil {
					t.Errorf("Flush(7) on a 2-rank window accepted (tracer %v)", rec != nil)
				}
			}
			r.W.Obs = nil
			if _, err := win.RPut(LocalBuf{Region: src, Type: t8}, 7, 0, t8); err == nil {
				t.Error("RPut to rank 7 of a 2-rank window accepted")
			}
			// MPI-3 allows the plain calls under lock-all too.
			must(t, win.Put(LocalBuf{Region: src, Type: t8}, 1, 8, t8))
			must(t, win.Flush(1))
			dst := r.AllocMem(8)
			greq, err := win.RGet(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(8)}, 1, 0, TypeContiguous(8))
			must(t, err)
			greq.Wait()
			must(t, win.Flush(1))
			if string(dst.Backing()) != "RMA3!!!!" {
				t.Errorf("rget = %q", dst.Backing())
			}
			must(t, win.UnlockAll())
		}
		win.Comm().Barrier()
		must(t, win.Free())
	})
}

func TestExclusiveQueueFairness(t *testing.T) {
	// Many contenders for one exclusive lock all eventually get it.
	const n = 6
	counts := 0
	withWin(t, n, 8, func(r *Rank, win *Win, reg *fabric.Region) {
		src := r.AllocMem(8)
		must(t, win.Lock(LockExclusive, 0))
		must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 0, 0, TypeContiguous(8)))
		must(t, win.Unlock(0))
		counts++
	})
	if counts != n {
		t.Errorf("only %d ranks completed", counts)
	}
}

func TestWinCreateZeroSizeRank(t *testing.T) {
	runMPI(t, 3, func(r *Rank) {
		var reg *fabric.Region
		if r.ID() != 1 {
			reg = r.AllocMem(32)
		} // rank 1 exposes nothing
		win, err := WinCreate(r.CommWorld(), reg)
		must(t, err)
		if win.Size(1) != 0 || win.Size(0) != 32 {
			t.Errorf("sizes: %d %d", win.Size(0), win.Size(1))
		}
		if r.ID() == 0 {
			src := r.AllocMem(8)
			must(t, win.Lock(LockExclusive, 2))
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(8)}, 2, 0, TypeContiguous(8)))
			must(t, win.Unlock(2))
		}
		must(t, win.Free())
	})
}

func TestCrossOriginSharedConflictDetected(t *testing.T) {
	// Two origins hold shared locks on one target and issue overlapping
	// puts: MPI-2 declares this erroneous, and the checking mode must
	// detect it (SectionIII).
	withWin(t, 3, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 2 {
			return
		}
		src := r.AllocMem(16)
		must(t, win.Lock(LockShared, 2))
		// Rank 0 issues early and holds its epoch open long enough for
		// rank 1's overlapping put to be issued while both are active.
		if r.ID() == 0 {
			must(t, win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 2, 4, TypeContiguous(16)))
			r.P.Elapse(100 * sim.Microsecond)
			must(t, win.Unlock(2))
			return
		}
		r.P.Elapse(30 * sim.Microsecond)
		err := win.Put(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, 2, 4, TypeContiguous(16))
		err2 := win.Unlock(2)
		if err == nil && err2 == nil {
			t.Error("overlapping shared-lock puts from two origins were not detected")
		}
	})
}

func TestCrossOriginSharedReadsAllowed(t *testing.T) {
	withWin(t, 3, 64, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 2 {
			return
		}
		dst := r.AllocMem(16)
		must(t, win.Lock(LockShared, 2))
		r.P.Elapse(sim.Time(10+r.ID()) * sim.Microsecond)
		must(t, win.Get(LocalBuf{Region: dst, Off: 0, Type: TypeContiguous(16)}, 2, 4, TypeContiguous(16)))
		must(t, win.Unlock(2))
	})
}

func TestCrossOriginSharedAccumulatesAllowed(t *testing.T) {
	// Same-op accumulates may overlap even from different origins.
	withWin(t, 3, 16, func(r *Rank, win *Win, reg *fabric.Region) {
		if r.ID() == 2 {
			return
		}
		src := r.AllocMem(16)
		copy(src.Backing(), f64sToBytes([]float64{1, 2}))
		must(t, win.Lock(LockShared, 2))
		r.P.Elapse(sim.Time(10+r.ID()) * sim.Microsecond)
		must(t, win.Accumulate(LocalBuf{Region: src, Off: 0, Type: TypeContiguous(16)}, OpSum, 2, 0, TypeContiguous(16)))
		must(t, win.Unlock(2))
	})
}

// issueErr issues d and reports only its error.
func (w *Win) issueErr(d rmaOp) error {
	_, _, err := w.issue(d)
	return err
}
