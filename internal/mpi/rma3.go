package mpi

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// MPI-3 RMA extensions (paper SectionVIII.B). The MPI Forum's MPI-3
// proposal addressed the four gaps this paper identified in MPI-2:
// conflicting operations relaxed from erroneous to undefined, an
// epochless passive mode (lock_all + flush), request-based operations,
// and atomic read-modify-write. These are implemented here behind
// World.MPI3 so the ARMCI-MPI runtime can be ablated against the
// MPI-2-only design the paper shipped with.

// EnableMPI3 switches the world into MPI-3 mode.
func (w *World) EnableMPI3() { w.MPI3 = true }

// LockedAll reports whether the window is in lock-all mode.
func (w *Win) LockedAll() bool { return w.all != nil }

// LockAll opens an epochless shared access epoch to every target. In
// MPI-3 implementations on cache-coherent hardware this performs no
// communication (locks are acquired lazily), which is how it is
// modeled here.
func (w *Win) LockAll() error {
	if !w.comm.r.W.MPI3 {
		return errMPI3("Win_lock_all")
	}
	if w.cur != nil {
		return fmt.Errorf("mpi: LockAll with an MPI-2 epoch open on target %d", w.cur.target)
	}
	if w.all != nil {
		return fmt.Errorf("mpi: LockAll: already in lock-all mode")
	}
	w.comm.r.opOverhead()
	w.all = map[int]*epoch{}
	return nil
}

// UnlockAll flushes all pending operations and leaves lock-all mode,
// reporting the window's error as Unlock does — the mode is left either
// way, so a failed window can still be freed.
func (w *Win) UnlockAll() error {
	if w.all == nil {
		return fmt.Errorf("mpi: UnlockAll without LockAll")
	}
	err := w.FlushAll()
	w.all = nil
	return err
}

// Flush blocks until every operation issued to target since the last
// flush has completed remotely (one control round trip after the last
// completion). For a same-node target of a shared window all issued
// operations were synchronous memcpys: the flush degenerates to a local
// memory fence and pays no round trip.
func (w *Win) Flush(target int) error {
	if w.all == nil {
		return fmt.Errorf("mpi: Flush outside lock-all mode")
	}
	if !w.validTarget(target) {
		return fmt.Errorf("mpi: Win.Flush: bad target %d", target)
	}
	r := w.comm.r
	t0 := r.P.Now()
	r.opOverhead()
	if ep := w.all[target]; ep != nil {
		ep.settle(r)
		if !w.viaShm(target) {
			r.P.Elapse(r.W.M.RoundTripTime(r.ID(), w.state.group[target]))
		}
	}
	return w.flushed(t0, target)
}

// FlushAll flushes every target with pending operations.
func (w *Win) FlushAll() error {
	if w.all == nil {
		return fmt.Errorf("mpi: FlushAll outside lock-all mode")
	}
	r := w.comm.r
	t0 := r.P.Now()
	r.opOverhead()
	// Iterate targets in rank order so ties on completeAt resolve
	// deterministically.
	targets := make([]int, 0, len(w.all))
	for t := range w.all {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	rtt := sim.Time(0)
	for {
		var last sim.Time
		for _, t := range targets {
			if ep := w.all[t]; ep.completeAt > last {
				last = ep.completeAt
				if w.viaShm(t) {
					rtt = 0 // shm targets need no completion round trip
				} else {
					rtt = r.W.M.RoundTripTime(r.ID(), w.state.group[t])
				}
			}
		}
		if last <= r.P.Now() {
			break
		}
		r.W.M.SleepUntil(r.P, last)
	}
	r.P.Elapse(rtt)
	return w.flushed(t0, -1)
}

// flushed records a flush of target (of every target when negative)
// that began at t0 and returns the window's error, which is what a flush
// reports.
func (w *Win) flushed(t0 sim.Time, target int) error {
	r := w.comm.r
	if target >= 0 {
		target = w.state.group[target]
	}
	r.W.Obs.Waited(obs.Wait{Kind: obs.WaitFlush, Rank: r.ID(), From: t0, To: r.P.Now(), Peer: target})
	return w.state.err
}

// lockAllEpoch returns (creating on demand) the per-target accounting
// epoch used in lock-all mode.
func (w *Win) lockAllEpoch(target int) *epoch {
	ep := w.all[target]
	if ep == nil {
		r := w.comm.r
		ep = &epoch{target: target, ltype: LockShared, relaxed: true,
			openedAt: r.P.Now(), completeAt: r.P.Now()}
		w.all[target] = ep
		r.W.Epochs++
		r.W.Obs.Count(r.ID(), obs.CEpochs, 1)
	}
	return ep
}

func errMPI3(call string) error {
	return fmt.Errorf("mpi: %s requires MPI-3 mode (MPI 2.2 provides no such operation)", call)
}

// RMAReq is a request handle for an MPI-3 request-based operation. A
// put's or accumulate's request is complete once the synchronous
// injection overheads (charged before the handle exists) are done: it
// has no epoch to track. The origin is the caller's again from then on,
// so RPut and RAccumulate — unlike Put and Accumulate, which read the
// origin when the bytes land — take a snapshot at issue. A handle is
// immutable, so requests that answer alike share one: every put and
// accumulate on a window the window's completed handle, every get to
// one target the handle of that target's lock-all epoch.
type RMAReq struct {
	r  *Rank
	ep *epoch // a get's epoch: the request completes at its (refinable) horizon
}

// Wait blocks until the operation has completed locally. Get-style
// requests track their epoch's completion horizon, which the fabric
// refines once the request reaches the target (NIC occupancy there is
// unknown at issue time).
func (q *RMAReq) Wait() {
	if q.ep != nil {
		q.ep.settle(q.r)
	}
}

// Test reports whether the operation has completed.
func (q *RMAReq) Test() bool { return q.ep == nil || q.r.P.Now() >= q.ep.completeAt }

// WaitAllRMA blocks until every request in reqs has completed locally
// (MPI_Waitall over request-based RMA operations). Nil requests are
// permitted and skipped, and requests may be waited more than once.
func WaitAllRMA(reqs []*RMAReq) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// TestAllRMA reports whether every request in reqs has completed
// locally, without blocking (MPI_Testall).
func TestAllRMA(reqs []*RMAReq) bool {
	for _, q := range reqs {
		if q != nil && !q.Test() {
			return false
		}
	}
	return true
}

// request issues d as a request-based operation, valid in lock-all mode
// only.
func (w *Win) request(d rmaOp) (*RMAReq, error) {
	if w.all == nil {
		return nil, fmt.Errorf("mpi: R%v outside lock-all mode", d.kind)
	}
	d.snap = true // the request completes at issue, and the origin with it
	ep, _, err := w.issue(d)
	if err != nil {
		return nil, err
	}
	if d.kind == opGet {
		if ep.getReq == nil {
			ep.getReq = &RMAReq{r: w.comm.r, ep: ep}
		}
		return ep.getReq, nil
	}
	if w.doneReq == nil {
		w.doneReq = &RMAReq{r: w.comm.r}
	}
	return w.doneReq, nil
}

// RPut is a request-based Put (MPI_Rput): valid in lock-all mode; the
// returned request completes when the origin buffer is reusable.
func (w *Win) RPut(buf LocalBuf, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	return w.request(xferOp(opPut, OpReplace, buf, target, tdisp, ttype))
}

// RAccumulate is a request-based Accumulate (MPI_Raccumulate): valid
// in lock-all mode; local completion on return (origin snapshotted).
func (w *Win) RAccumulate(buf LocalBuf, op Op, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	return w.request(xferOp(opAcc, op, buf, target, tdisp, ttype))
}

// RGet is a request-based Get (MPI_Rget); the request completes when
// the data has landed in the origin buffer.
func (w *Win) RGet(buf LocalBuf, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	return w.request(xferOp(opGet, OpNoOp, buf, target, tdisp, ttype))
}

const amoProcessNs = 120 // target-side atomic execution cost

// int64Type is the layout of the one element an atomic works on.
var int64Type = TypeContiguous(8)

// atomic issues a read-modify-write of the int64 at (target, tdisp) and
// blocks until the value it displaced is back. It requires MPI-3 mode
// and an open epoch or lock-all on the target; like the calls that
// close an epoch, it reports the window's error.
func (w *Win) atomic(call string, d rmaOp, target, tdisp int) (int64, error) {
	if !w.comm.r.W.MPI3 {
		return 0, errMPI3(call)
	}
	d.target, d.buf.Type, d.at = target, int64Type, LocalBuf{Off: tdisp, Type: int64Type}
	_, old, err := w.issue(d)
	if err != nil {
		return 0, err
	}
	return old, w.state.err
}

// amoUpdate is where the two atomics differ: the value to store over
// old, and whether to store it.
func amoUpdate(kind opKind, op Op, old, operand, compare int64) (int64, bool) {
	if kind == opCAS {
		return operand, old == compare
	}
	if op == OpNoOp {
		return old, false
	}
	v := []int64{old}
	reduceI64(op, v, []int64{operand})
	return v[0], true
}

// FetchAndOp atomically applies op to the int64 at (target, tdisp) with
// operand `operand` and returns the previous value (MPI_Fetch_and_op
// with MPI_INT64_T). OpNoOp reads without modifying; OpReplace swaps.
func (w *Win) FetchAndOp(op Op, operand int64, target, tdisp int) (int64, error) {
	return w.atomic("Fetch_and_op", rmaOp{kind: opFetchOp, op: op, operand: operand}, target, tdisp)
}
