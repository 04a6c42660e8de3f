package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The origin-side litmus rows of the RMA layer: when may a put or
// accumulate read its origin buffer, and when is the buffer the
// caller's again? Each row runs rank 0's operation on a 4-rank machine
// (two ranks per node) against a same-node target (1) and a cross-node
// one (2), through a plain window (every target on the wire) and a
// shared one (the same-node target on the shm route), with the pool
// poisoning every released buffer (watchBufs). Right after the call
// that hands the origin back, rank 0 scribbles 0xFF over it and frees
// its region, so its backing is poisoned in the pool: the target must
// still end up with the bytes the origin held before the scribble.

// litmusLayouts are the origin/target layout pairs of every row: both
// dense, and both noncontiguous (float64-aligned runs, so accumulate
// can use them too).
var litmusLayouts = []struct {
	name           string
	origin, target Datatype
}{
	{"contig", TypeContiguous(64), TypeContiguous(64)},
	{"noncontig", TypeVector(4, 16, 24), TypeIndexed([]int{128, 16, 64, 200}, []int{16, 16, 16, 16})},
}

// litmusRow runs one row. issue performs rank 0's operation on target
// and returns once the origin buffer is the caller's again; done, if
// non-nil, then completes it remotely (after the scribble and free).
func litmusRow(t *testing.T, shared, acc bool, target int, ot, tt Datatype,
	issue func(win *Win, buf LocalBuf, target int, tt Datatype) error, done func(win *Win, target int) error) {
	const winBytes = 256
	watchBufs(t)
	var want []byte // rank 0's expected target image, read by the target after a barrier
	runMPI(t, 4, func(r *Rank) {
		r.W.EnableMPI3()
		create := WinCreate
		if shared {
			create = WinCreateShared
		}
		reg := r.AllocMem(winBytes)
		win, err := create(r.CommWorld(), reg)
		must(t, err)
		if r.ID() == 0 {
			src := r.AllocMem(ot.Span())
			mem := src.Backing()
			for e := 0; e+8 <= len(mem); e += 8 {
				binary.LittleEndian.PutUint64(mem[e:], math.Float64bits(float64(e)+1.25))
			}
			// The target starts zeroed, so a put and a summing accumulate
			// leave the same bytes: the origin's, in the target's layout.
			dense := make([]byte, ot.Size())
			PackInto(dense, ot, mem)
			want = make([]byte, winBytes)
			Unpack(tt, want, dense)
			must(t, issue(win, LocalBuf{Region: src, Type: ot}, target, tt))
			for i := range mem {
				mem[i] = 0xFF
			}
			must(t, r.W.M.Space(0).Free(src.VA))
			if done != nil {
				must(t, done(win, target))
			}
			if win.LockedAll() {
				must(t, win.UnlockAll())
			}
		}
		r.CommWorld().Barrier()
		if r.ID() == target {
			got := reg.Backing()
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("target byte %d = %#x, want %#x (the origin before the scribble)", i, got[i], want[i])
					break
				}
			}
		}
		r.CommWorld().Barrier()
		must(t, win.Free())
	})
}

// xferCall issues a put, or a summing accumulate, through the plain or
// the request-based call.
func xferCall(win *Win, acc, request bool, buf LocalBuf, target int, tt Datatype) error {
	var err error
	switch {
	case acc && request:
		_, err = win.RAccumulate(buf, OpSum, target, 0, tt)
	case request:
		_, err = win.RPut(buf, target, 0, tt)
	case acc:
		err = win.Accumulate(buf, OpSum, target, 0, tt)
	default:
		err = win.Put(buf, target, 0, tt)
	}
	return err
}

// litmusRows runs body for every route, kind and layout of a row.
func litmusRows(t *testing.T, body func(t *testing.T, shared, acc bool, target int, ot, tt Datatype)) {
	for _, shared := range []bool{false, true} {
		for _, target := range []int{1, 2} {
			for _, acc := range []bool{false, true} {
				for _, l := range litmusLayouts {
					name := fmt.Sprintf("shared=%v/target=%d/acc=%v/%s", shared, target, acc, l.name)
					t.Run(name, func(t *testing.T) { body(t, shared, acc, target, l.origin, l.target) })
				}
			}
		}
	}
}

// TestOriginFreeAfterCompletionLitmus: a Put or Accumulate completed by
// its epoch — MPI-2 Lock…Unlock, or lock-all and Flush — may read its
// origin as late as the epoch allows, but not later: once Unlock or
// Flush returns the origin can be scribbled on and freed.
func TestOriginFreeAfterCompletionLitmus(t *testing.T) {
	litmusRows(t, func(t *testing.T, shared, acc bool, target int, ot, tt Datatype) {
		t.Run("lock", func(t *testing.T) {
			litmusRow(t, shared, acc, target, ot, tt, func(win *Win, buf LocalBuf, target int, tt Datatype) error {
				if err := win.Lock(LockExclusive, target); err != nil {
					return err
				}
				if err := xferCall(win, acc, false, buf, target, tt); err != nil {
					return err
				}
				return win.Unlock(target)
			}, nil)
		})
		t.Run("lockall", func(t *testing.T) {
			litmusRow(t, shared, acc, target, ot, tt, func(win *Win, buf LocalBuf, target int, tt Datatype) error {
				if err := win.LockAll(); err != nil {
					return err
				}
				if err := xferCall(win, acc, false, buf, target, tt); err != nil {
					return err
				}
				return win.Flush(target)
			}, nil)
		})
	})
}

// TestRequestOpsSnapshotLitmus: RPut and RAccumulate return a request
// that is already complete, so the origin is the caller's at once —
// scribbled on and freed before the Flush that completes the transfer
// remotely, it must still land as it was at issue.
func TestRequestOpsSnapshotLitmus(t *testing.T) {
	litmusRows(t, func(t *testing.T, shared, acc bool, target int, ot, tt Datatype) {
		litmusRow(t, shared, acc, target, ot, tt, func(win *Win, buf LocalBuf, target int, tt Datatype) error {
			if err := win.LockAll(); err != nil {
				return err
			}
			return xferCall(win, acc, true, buf, target, tt)
		}, func(win *Win, target int) error { return win.Flush(target) })
	})
}

// TestZeroByteRMA: a zero-byte Put, Get or Accumulate is a legal no-op
// on every route — self, a same-node target and a cross-node one,
// through a plain window and a shared one (where self and the same-node
// target take the shm route) — so the Unlock that completes it, and the
// window's later epochs, report no error.
func TestZeroByteRMA(t *testing.T) {
	none := TypeContiguous(0)
	for _, shared := range []bool{false, true} {
		for _, target := range []int{0, 1, 2} {
			for _, kind := range []opKind{opPut, opGet, opAcc} {
				t.Run(fmt.Sprintf("shared=%v/target=%d/%v", shared, target, kind), func(t *testing.T) {
					watchBufs(t)
					runMPI(t, 4, func(r *Rank) {
						create := WinCreate
						if shared {
							create = WinCreateShared
						}
						win, err := create(r.CommWorld(), r.AllocMem(64))
						must(t, err)
						if r.ID() == 0 {
							buf := LocalBuf{Region: r.AllocMem(8), Type: none}
							for range 2 {
								must(t, win.Lock(LockExclusive, target))
								switch kind {
								case opPut:
									must(t, win.Put(buf, target, 8, none))
								case opGet:
									must(t, win.Get(buf, target, 8, none))
								default:
									must(t, win.Accumulate(buf, OpSum, target, 8, none))
								}
								if err := win.Unlock(target); err != nil {
									t.Fatalf("Unlock after a zero-byte %v: %v", kind, err)
								}
							}
						}
						r.CommWorld().Barrier()
						must(t, win.Free())
					})
				})
			}
		}
	}
}

// TestSelfOverlapLitmus: a noncontiguous put, accumulate or get whose
// target is the origin's own rank, with the origin buffer inside the
// window where each piece it lands on is the next piece it reads. On a
// plain window the self target takes the wire route; on a shared one,
// the shm route. Either way the target must end up as if the source
// had been read whole before anything landed.
func TestSelfOverlapLitmus(t *testing.T) {
	const winBytes, shift = 256, 24
	vec := TypeVector(4, 16, shift)
	for _, shared := range []bool{false, true} {
		for _, kind := range []opKind{opPut, opGet, opAcc} {
			t.Run(fmt.Sprintf("shared=%v/%v", shared, kind), func(t *testing.T) {
				watchBufs(t)
				runMPI(t, 2, func(r *Rank) {
					create := WinCreate
					if shared {
						create = WinCreateShared
					}
					reg := r.AllocMem(winBytes)
					win, err := create(r.CommWorld(), reg)
					must(t, err)
					if r.ID() == 0 {
						mem := reg.Backing()
						for e := 0; e+8 <= len(mem); e += 8 {
							binary.LittleEndian.PutUint64(mem[e:], math.Float64bits(float64(e)+1.25))
						}
						// A put or accumulate reads from 0 and lands at shift; a
						// get reads from 0 and stores at shift.
						want := append([]byte(nil), mem...)
						dense := make([]byte, vec.Size())
						PackInto(dense, vec, want)
						if kind == opAcc {
							moved := make([]byte, vec.Size())
							PackInto(moved, vec, want[shift:])
							ReduceBytesF64(OpSum, moved, dense)
							dense = moved
						}
						Unpack(vec, want[shift:], dense)
						must(t, win.Lock(LockExclusive, 0))
						switch kind {
						case opPut:
							must(t, win.Put(LocalBuf{Region: reg, Type: vec}, 0, shift, vec))
						case opGet:
							must(t, win.Get(LocalBuf{Region: reg, Off: shift, Type: vec}, 0, 0, vec))
						default:
							must(t, win.Accumulate(LocalBuf{Region: reg, Type: vec}, OpSum, 0, shift, vec))
						}
						must(t, win.Unlock(0))
						for i := range want {
							if mem[i] != want[i] {
								t.Fatalf("byte %d = %#x, want %#x (the source as it was before the call)", i, mem[i], want[i])
							}
						}
					}
					r.CommWorld().Barrier()
					must(t, win.Free())
				})
			})
		}
	}
}
