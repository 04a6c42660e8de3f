package mpi

import (
	"strings"
	"testing"

	"repro/internal/fabric"
)

// bufLedger follows every payload buffer through the machine's pool by
// base address, through the test-only fabric.BufHook: which buffers are
// out with an operation, which sit in the free list. A buffer released
// twice would sit in the free list twice and so be handed to two
// operations at once; the ledger reports either event. Released buffers
// are also poisoned, so a reader holding one after release sees 0xDB.
type bufLedger struct {
	t    *testing.T
	out  map[*byte]bool
	free map[*byte]bool
	gets int
}

func watchBufs(t *testing.T) *bufLedger {
	l := &bufLedger{t: t, out: map[*byte]bool{}, free: map[*byte]bool{}}
	fabric.BufHook = func(b []byte, put bool) {
		k := &b[0]
		if !put {
			if l.out[k] {
				t.Errorf("buffer %p handed to two operations", k)
			}
			delete(l.free, k)
			l.out[k] = true
			l.gets++
			return
		}
		if l.free[k] {
			t.Errorf("buffer %p released twice", k)
		}
		delete(l.out, k)
		l.free[k] = true
		for i := range b {
			b[i] = 0xDB
		}
	}
	t.Cleanup(func() { fabric.BufHook = nil })
	return l
}

// TestApplyFailureReleasesPayloadOnce reruns the out-of-window accesses
// of TestAccessOutsideWindowRejected with semantic checking off, where
// nothing stops the operation at issue and the store itself fails: the
// Region.Bytes panic becomes the window's error, and the payload is
// given back exactly once (or, for a get whose target read fails, never
// drawn). Afterwards the pool must still hand each buffer to one
// operation at a time, which a clean round trip on a second window
// checks end to end.
func TestApplyFailureReleasesPayloadOnce(t *testing.T) {
	const winBytes = 16
	big := TypeContiguous(32) // twice the window: cannot land
	cases := []struct {
		name string
		// issue runs the failing access inside rank 0's open epoch on
		// target 1; local is a 32-byte origin buffer, small a 16-byte one.
		issue   func(win *Win, local, small *fabric.Region) error
		wantErr string
	}{
		{"put", func(win *Win, local, _ *fabric.Region) error {
			return win.Put(LocalBuf{Region: local, Type: big}, 1, 8, big)
		}, "Put apply failed"},
		{"accumulate", func(win *Win, local, _ *fabric.Region) error {
			return win.Accumulate(LocalBuf{Region: local, Type: big}, OpSum, 1, 8, big)
		}, "Accumulate apply failed"},
		{"get/target-read", func(win *Win, local, _ *fabric.Region) error {
			return win.Get(LocalBuf{Region: local, Type: big}, 1, 8, big)
		}, "Get apply failed"},
		{"get/origin-store", func(win *Win, _, small *fabric.Region) error {
			// The target read succeeds; the origin store runs off the
			// end of the 16-byte local buffer when the data lands.
			t16 := TypeContiguous(winBytes)
			return win.Get(LocalBuf{Region: small, Off: 8, Type: t16}, 1, 0, t16)
		}, "Get apply failed"},
		// The atomics carry no payload; what they must not do is skip
		// winState.apply, on either route.
		{"fetch-and-op", func(win *Win, _, _ *fabric.Region) error {
			_, err := win.FetchAndOp(OpSum, 1, 1, 12)
			return err
		}, "FetchAndOp apply failed"},
		{"compare-and-swap", func(win *Win, _, _ *fabric.Region) error {
			_, err := win.CompareAndSwap(0, 1, 1, winBytes)
			return err
		}, "CompareAndSwap apply failed"},
	}
	for _, shared := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if shared {
				name += "/shm"
			}
			t.Run(name, func(t *testing.T) {
				ledger := watchBufs(t)
				runMPI(t, 2, func(r *Rank) {
					r.W.Checked = false
					r.W.EnableMPI3()
					create := WinCreate
					if shared {
						create = WinCreateShared
					}
					bad, err := create(r.CommWorld(), r.AllocMem(winBytes))
					must(t, err)
					good, err := create(r.CommWorld(), r.AllocMem(winBytes))
					must(t, err)
					if r.ID() == 0 {
						must(t, bad.Lock(LockExclusive, 1))
						opErr := tc.issue(bad, r.AllocMem(32), r.AllocMem(winBytes))
						unlockErr := bad.Unlock(1)
						// The RMA path reports at Unlock, the shm path at the op.
						for _, e := range []error{opErr, unlockErr} {
							if e != nil && !strings.Contains(e.Error(), tc.wantErr) {
								t.Errorf("error %q does not mention %q", e, tc.wantErr)
							}
						}
						if opErr == nil && unlockErr == nil {
							t.Error("out-of-window access reported no error")
						}

						src, dst := r.AllocMem(winBytes), r.AllocMem(winBytes)
						copy(src.Backing(), "sixteen bytes ok")
						t16 := TypeContiguous(winBytes)
						must(t, good.Lock(LockExclusive, 1))
						must(t, good.Put(LocalBuf{Region: src, Type: t16}, 1, 0, t16))
						must(t, good.Unlock(1))
						must(t, good.Lock(LockExclusive, 1))
						must(t, good.Get(LocalBuf{Region: dst, Type: t16}, 1, 0, t16))
						must(t, good.Unlock(1))
						if got := string(dst.Backing()); got != "sixteen bytes ok" {
							t.Errorf("round trip after the failure read %q", got)
						}
					}
					if err := bad.Free(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("Free of the failed window returned %v", err)
					}
					must(t, good.Free())
				})
				if ledger.gets == 0 {
					t.Fatal("no payload buffer was drawn: the hook is not wired")
				}
				if n := len(ledger.out); n != 0 {
					t.Errorf("%d payload buffers never came back", n)
				}
			})
		}
	}
}
