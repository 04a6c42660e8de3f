package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/profile"
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
		return errMPI3(w, "Win_lock_all")
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

// UnlockAll flushes all pending operations and leaves lock-all mode.
func (w *Win) UnlockAll() error {
	if w.all == nil {
		return fmt.Errorf("mpi: UnlockAll without LockAll")
	}
	if err := w.FlushAll(); err != nil {
		return err
	}
	w.all = nil
	return w.state.err
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
	r := w.comm.r
	t0 := r.P.Now()
	r.opOverhead()
	if ep := w.all[target]; ep != nil {
		for {
			horizon := ep.completeAt
			r.W.M.SleepUntil(r.P, horizon)
			if ep.completeAt <= horizon {
				break
			}
		}
		if !w.shmFast(target) {
			r.P.Elapse(r.W.M.RoundTripTime(r.ID(), w.state.group[target]))
		}
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.CEpochFlush)
	if pr := o.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseEpochWait, t0, r.P.Now())
	}
	if o.Tracing() {
		o.Span(r.ID(), "epoch", "flush", t0, r.P.Now(), obs.A("target", w.state.group[target]))
	}
	return w.state.err
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
				if w.shmFast(t) {
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
	o := r.W.Obs
	o.Inc(r.ID(), obs.CEpochFlush)
	if pr := o.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseEpochWait, t0, r.P.Now())
	}
	o.Span(r.ID(), "epoch", "flush_all", t0, r.P.Now())
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
		r.W.Obs.Inc(r.ID(), obs.CEpochs)
	}
	return ep
}

func errMPI3(w *Win, call string) error {
	return fmt.Errorf("mpi: %s requires MPI-3 mode (MPI 2.2 provides no such operation)", call)
}

// RMAReq is a request handle for an MPI-3 request-based operation.
type RMAReq struct {
	r      *Rank
	doneAt sim.Time
	ep     *epoch // when set, Wait tracks the epoch's (refinable) horizon
}

// Wait blocks until the operation has completed locally. Get-style
// requests track their epoch's completion horizon, which the fabric
// refines once the request reaches the target (NIC occupancy there is
// unknown at issue time).
func (q *RMAReq) Wait() {
	for {
		t := q.doneAt
		if q.ep != nil && q.ep.completeAt > t {
			t = q.ep.completeAt
		}
		q.r.W.M.SleepUntil(q.r.P, t)
		if q.ep == nil || q.ep.completeAt <= t {
			return
		}
	}
}

// Test reports whether the operation has completed.
func (q *RMAReq) Test() bool {
	t := q.doneAt
	if q.ep != nil && q.ep.completeAt > t {
		t = q.ep.completeAt
	}
	return q.r.P.Now() >= t
}

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

// RPut is a request-based Put (MPI_Rput): valid in lock-all mode; the
// returned request completes when the origin buffer is reusable.
func (w *Win) RPut(buf LocalBuf, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	if w.all == nil {
		return nil, fmt.Errorf("mpi: RPut outside lock-all mode")
	}
	before := w.cur
	w.cur = w.lockAllEpoch(target)
	err := w.Put(buf, target, tdisp, ttype)
	ep := w.cur
	w.cur = before
	if err != nil {
		return nil, err
	}
	// Local completion: the origin buffer was snapshotted at issue, so
	// the request is complete as soon as the synchronous injection
	// overheads (already charged) are done.
	_ = ep
	return &RMAReq{r: w.comm.r, doneAt: w.comm.r.P.Now()}, nil
}

// RAccumulate is a request-based Accumulate (MPI_Raccumulate): valid
// in lock-all mode; local completion on return (origin snapshotted).
func (w *Win) RAccumulate(buf LocalBuf, op Op, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	if w.all == nil {
		return nil, fmt.Errorf("mpi: RAccumulate outside lock-all mode")
	}
	before := w.cur
	w.cur = w.lockAllEpoch(target)
	err := w.Accumulate(buf, op, target, tdisp, ttype)
	w.cur = before
	if err != nil {
		return nil, err
	}
	return &RMAReq{r: w.comm.r, doneAt: w.comm.r.P.Now()}, nil
}

// RGet is a request-based Get (MPI_Rget); the request completes when
// the data has landed in the origin buffer.
func (w *Win) RGet(buf LocalBuf, target, tdisp int, ttype Datatype) (*RMAReq, error) {
	if w.all == nil {
		return nil, fmt.Errorf("mpi: RGet outside lock-all mode")
	}
	before := w.cur
	w.cur = w.lockAllEpoch(target)
	err := w.Get(buf, target, tdisp, ttype)
	ep := w.cur
	w.cur = before
	if err != nil {
		return nil, err
	}
	return &RMAReq{r: w.comm.r, doneAt: ep.completeAt, ep: ep}, nil
}

const amoProcessNs = 120 // target-side atomic execution cost

// amoShmProf records the profiler attribution of a same-node atomic:
// serialization behind the target's accumulate engine, the atomic
// execution, and the 8-byte matrix entry (send and receive together —
// the shm path completes synchronously).
func (w *Win) amoShmProf(target int, t0q, start, fin sim.Time) {
	pr := w.comm.r.W.Obs.Prof()
	if pr == nil {
		return
	}
	rank := w.comm.r.ID()
	pr.PhaseAt(rank, profile.PhaseTargetQueue, t0q, start)
	pr.PhaseAt(rank, profile.PhaseTargetProc, start, fin)
	targetWorld := w.state.group[target]
	pr.Send(rank, targetWorld, profile.MsgAmo, profile.RouteShm, 8)
	pr.Recv(rank, targetWorld, profile.MsgAmo, profile.RouteShm, 8)
}

// FetchAndOp atomically applies op to the int64 at (target, tdisp) with
// operand `operand` and returns the previous value (MPI_Fetch_and_op
// with MPI_INT64_T). OpNoOp reads without modifying; OpReplace swaps.
// Requires MPI-3 mode and an open epoch or lock-all on the target.
func (w *Win) FetchAndOp(op Op, operand int64, target, tdisp int) (int64, error) {
	r := w.comm.r
	t0 := r.P.Now()
	if !r.W.MPI3 {
		return 0, errMPI3(w, "Fetch_and_op")
	}
	var ep *epoch
	switch {
	case w.cur != nil && w.cur.target == target:
		ep = w.cur
	case w.all != nil:
		ep = w.lockAllEpoch(target)
	default:
		return 0, fmt.Errorf("mpi: FetchAndOp on target %d without epoch or lock-all", target)
	}
	w.chargeRMAOverheads(ep)
	m := r.W.M
	eng := m.Eng
	p := r.P
	targetWorld := w.state.group[target]
	treg := w.state.regions[target]
	tl := w.state.lockAt(target)
	ws := w.state
	var old int64
	if w.shmFast(target) {
		// Same-node atomic: a CPU atomic on the shared segment. Still
		// serialized with accumulate processing on this target, but no
		// control messages.
		t0q := p.Now()
		start := t0q
		if tl.accBusy > start {
			start = tl.accBusy
		}
		fin := start + sim.Time(amoProcessNs)
		tl.accBusy = fin
		w.amoShmProf(target, t0q, start, fin)
		m.SleepUntil(p, fin)
		if err := ws.apply("FetchAndOp", func() {
			b := treg.Bytes(treg.VA+int64(tdisp), 8)
			old = int64(binary.LittleEndian.Uint64(b))
			if op != OpNoOp {
				nv := []int64{old}
				reduceI64(op, nv, []int64{operand})
				binary.LittleEndian.PutUint64(b, uint64(nv[0]))
			}
		}); err != nil {
			return 0, err
		}
		if ep.completeAt < p.Now() {
			ep.completeAt = p.Now()
		}
		o := r.W.Obs
		o.Inc(r.ID(), obs.COpsAmo)
		if o.Tracing() {
			o.Span(r.ID(), "rma", "fetch_and_op("+op.String()+").shm", t0, p.Now(), obs.A("target", targetWorld))
		}
		return old, ws.err
	}
	done := false
	pr := r.W.Obs.Prof()
	origin := r.ID()
	if pr != nil {
		pr.Send(origin, targetWorld, profile.MsgAmo, profile.RouteRMA, 8)
	}
	arrive := r.control(targetWorld)
	eng.At(arrive, func() {
		// Atomics serialize through the target agent.
		t0q := eng.Now()
		start := t0q
		if tl.accBusy > start {
			start = tl.accBusy
		}
		fin := start + sim.Time(amoProcessNs)
		tl.accBusy = fin
		if pr != nil {
			pr.PhaseAt(origin, profile.PhaseTargetQueue, t0q, start)
			pr.PhaseAt(origin, profile.PhaseTargetProc, start, fin)
		}
		eng.At(fin, func() {
			if pr != nil {
				pr.Recv(origin, targetWorld, profile.MsgAmo, profile.RouteRMA, 8)
			}
			defer func() {
				if rec := recover(); rec != nil {
					ws.setErr(fmt.Errorf("mpi: FetchAndOp apply failed: %v", rec))
					done = true
					eng.Unpark(p)
				}
			}()
			b := treg.Bytes(treg.VA+int64(tdisp), 8)
			old = int64(binary.LittleEndian.Uint64(b))
			if op != OpNoOp {
				nv := []int64{old}
				reduceI64(op, nv, []int64{operand})
				binary.LittleEndian.PutUint64(b, uint64(nv[0]))
			}
			back := m.SendDataAsync(targetWorld, r.ID(), 0, fabric.XferOpt{NoNIC: true})
			eng.At(back, func() {
				done = true
				eng.Unpark(p)
			})
		})
	})
	for !done {
		p.Park("mpi.FetchAndOp")
	}
	if ep.completeAt < p.Now() {
		ep.completeAt = p.Now()
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.COpsAmo)
	if o.Tracing() {
		o.Span(r.ID(), "rma", "fetch_and_op("+op.String()+")", t0, p.Now(), obs.A("target", targetWorld))
	}
	return old, ws.err
}

// CompareAndSwap atomically replaces the int64 at (target, tdisp) with
// swapv if it equals compare, returning the previous value.
func (w *Win) CompareAndSwap(compare, swapv int64, target, tdisp int) (int64, error) {
	r := w.comm.r
	t0 := r.P.Now()
	if !r.W.MPI3 {
		return 0, errMPI3(w, "Compare_and_swap")
	}
	var ep *epoch
	switch {
	case w.cur != nil && w.cur.target == target:
		ep = w.cur
	case w.all != nil:
		ep = w.lockAllEpoch(target)
	default:
		return 0, fmt.Errorf("mpi: CompareAndSwap on target %d without epoch or lock-all", target)
	}
	w.chargeRMAOverheads(ep)
	m := r.W.M
	eng := m.Eng
	p := r.P
	targetWorld := w.state.group[target]
	treg := w.state.regions[target]
	tl := w.state.lockAt(target)
	ws := w.state
	var old int64
	if w.shmFast(target) {
		t0q := p.Now()
		start := t0q
		if tl.accBusy > start {
			start = tl.accBusy
		}
		fin := start + sim.Time(amoProcessNs)
		tl.accBusy = fin
		w.amoShmProf(target, t0q, start, fin)
		m.SleepUntil(p, fin)
		if err := ws.apply("CompareAndSwap", func() {
			b := treg.Bytes(treg.VA+int64(tdisp), 8)
			old = int64(binary.LittleEndian.Uint64(b))
			if old == compare {
				binary.LittleEndian.PutUint64(b, uint64(swapv))
			}
		}); err != nil {
			return 0, err
		}
		if ep.completeAt < p.Now() {
			ep.completeAt = p.Now()
		}
		o := r.W.Obs
		o.Inc(r.ID(), obs.COpsAmo)
		if o.Tracing() {
			o.Span(r.ID(), "rma", "compare_and_swap.shm", t0, p.Now(), obs.A("target", targetWorld))
		}
		return old, ws.err
	}
	done := false
	pr := r.W.Obs.Prof()
	origin := r.ID()
	if pr != nil {
		pr.Send(origin, targetWorld, profile.MsgAmo, profile.RouteRMA, 8)
	}
	arrive := r.control(targetWorld)
	eng.At(arrive, func() {
		t0q := eng.Now()
		start := t0q
		if tl.accBusy > start {
			start = tl.accBusy
		}
		fin := start + sim.Time(amoProcessNs)
		tl.accBusy = fin
		if pr != nil {
			pr.PhaseAt(origin, profile.PhaseTargetQueue, t0q, start)
			pr.PhaseAt(origin, profile.PhaseTargetProc, start, fin)
		}
		eng.At(fin, func() {
			if pr != nil {
				pr.Recv(origin, targetWorld, profile.MsgAmo, profile.RouteRMA, 8)
			}
			defer func() {
				if rec := recover(); rec != nil {
					ws.setErr(fmt.Errorf("mpi: CompareAndSwap apply failed: %v", rec))
					done = true
					eng.Unpark(p)
				}
			}()
			b := treg.Bytes(treg.VA+int64(tdisp), 8)
			old = int64(binary.LittleEndian.Uint64(b))
			if old == compare {
				binary.LittleEndian.PutUint64(b, uint64(swapv))
			}
			back := m.SendDataAsync(targetWorld, r.ID(), 0, fabric.XferOpt{NoNIC: true})
			eng.At(back, func() {
				done = true
				eng.Unpark(p)
			})
		})
	})
	for !done {
		p.Park("mpi.CompareAndSwap")
	}
	if ep.completeAt < p.Now() {
		ep.completeAt = p.Now()
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.COpsAmo)
	if o.Tracing() {
		o.Span(r.ID(), "rma", "compare_and_swap", t0, p.Now(), obs.A("target", targetWorld))
	}
	return old, ws.err
}
