package mpi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// LockType selects the passive-target access mode.
type LockType int

const (
	LockShared LockType = iota
	LockExclusive
)

func (lt LockType) String() string {
	if lt == LockExclusive {
		return "exclusive"
	}
	return "shared"
}

// opKind is what a one-sided operation does at the bytes it names: it
// decides what lands. (What the operation costs is its route's
// business: see issue.)
type opKind int

const (
	opGet opKind = iota
	opPut
	opAcc
	opFetchOp // MPI-3 atomics from here on
	opCAS
)

// kinds holds what the layers around the op core call each kind: the
// exported call (apply errors, diagnostics), the kind and the message
// class the recorder knows it by and, for the atomics that block on a
// round trip, the park reason.
var kinds = [...]struct {
	name, park string
	ev         obs.RMAKind
	class      profile.MsgClass
}{
	opGet:     {name: "Get", ev: obs.RMAGet, class: profile.MsgGet},
	opPut:     {name: "Put", ev: obs.RMAPut, class: profile.MsgPut},
	opAcc:     {name: "Accumulate", ev: obs.RMAAcc, class: profile.MsgAcc},
	opFetchOp: {name: "FetchAndOp", ev: obs.RMAFetchOp, class: profile.MsgAmo, park: "mpi.FetchAndOp"},
	opCAS:     {name: "CompareAndSwap", ev: obs.RMACas, class: profile.MsgAmo, park: "mpi.CompareAndSwap"},
}

func (k opKind) String() string { return kinds[k].name }
func (k opKind) writes() bool   { return k != opGet }
func (k opKind) atomic() bool   { return k >= opFetchOp }

// accumulates reports whether the target's agent applies the kind
// element by element, so that two of them with the same op commute.
func (k opKind) accumulates() bool { return k >= opAcc }

// rng is a byte range [Lo,Hi) touched at a target, with the access kind.
type rng struct {
	lo, hi int
	kind   opKind
	op     Op // for the accumulate family: same-op updates may overlap
}

func (a rng) overlaps(b rng) bool { return a.lo < b.hi && b.lo < a.hi }

func (a rng) conflicts(b rng) bool {
	if !a.overlaps(b) {
		return false
	}
	if !a.kind.writes() && !b.kind.writes() {
		return false // concurrent reads are fine
	}
	if a.kind.accumulates() && b.kind.accumulates() && a.op == b.op {
		return false // same-op accumulates may overlap (MPI-2 7.4.2); MPI-3 puts its atomics in the same family
	}
	return true
}

// activeEpoch is the target-side record of one origin's open epoch,
// used for cross-origin conflict detection under shared locks.
type activeEpoch struct {
	originWorld int
	ltype       LockType
	touched     rangeSet
}

// targetLock arbitrates passive-target access to one window rank.
type targetLock struct {
	holders []*activeEpoch // currently granted epochs
	queue   []*epoch       // FIFO waiters: MPI-2 epochs whose Lock is pending
	// accBusy serializes target-side accumulate processing, modeling
	// the agent/NIC that applies reductions.
	accBusy sim.Time
}

// serve books cost worth of work on the target's agent, no earlier than
// at and behind whatever it is already doing, and returns when the work
// starts and finishes.
func (t *targetLock) serve(at, cost sim.Time) (start, fin sim.Time) {
	start = at
	if t.accBusy > start {
		start = t.accBusy
	}
	fin = start + cost
	t.accBusy = fin
	return start, fin
}

func (t *targetLock) heldExclusive() bool {
	return len(t.holders) == 1 && t.holders[0].ltype == LockExclusive
}

func (t *targetLock) grantable(lt LockType) bool {
	if len(t.holders) == 0 {
		return len(t.queue) == 0
	}
	if t.heldExclusive() || lt == LockExclusive {
		return false
	}
	// Shared request with shared holders: grant only if no exclusive
	// request is queued ahead (prevents writer starvation).
	return len(t.queue) == 0
}

// winState is the shared (cross-rank) state of one window.
type winState struct {
	id      int
	w       *World
	group   []int // window rank -> world rank
	regions []*fabric.Region
	sizes   []int
	locks   []*targetLock
	err     error // first asynchronous semantic violation
	freed   bool

	// Win_allocate_shared flavor: same-node ranks map each other's
	// regions directly and RMA to them degenerates to memcpys.
	shared bool
	segs   map[int]*fabric.ShmSegment // node -> segment
}

func (ws *winState) setErr(err error) {
	if ws.err == nil {
		ws.err = err
	}
}

// lockAt returns target's arbitration state, materializing it on first
// use — most targets of a large window are never locked by anyone.
func (ws *winState) lockAt(target int) *targetLock {
	if ws.locks[target] == nil {
		ws.locks[target] = &targetLock{}
	}
	return ws.locks[target]
}

// Win is one rank's handle on a window.
type Win struct {
	state *winState
	comm  *Comm
	rank  int // window rank

	cur *epoch         // at most one open epoch per window per origin (MPI-2)
	all map[int]*epoch // lock-all mode accounting (MPI-3); nil when inactive

	doneReq *RMAReq // the completed request every RPut and RAccumulate returns

	// rec is the one MPI-2 epoch record, built at the first Lock and
	// reopened by every later one: MPI-2 allows one open epoch per window
	// per origin, so the epoch, its target-side activeEpoch, their range
	// sets and the events of its handshake are never live twice (see
	// DESIGN.md, "Per-message and per-epoch records").
	rec *epoch
}

// epoch is the origin-side record of an open access epoch.
type epoch struct {
	target     int // window rank
	ltype      LockType
	nops       int
	openedAt   sim.Time // grant time, for epoch trace spans
	completeAt sim.Time
	ranges     []rng    // target ranges touched in issue order, to word a conflict
	touched    rangeSet // the same ranges, indexed, to find one
	active     *activeEpoch
	relaxed    bool    // MPI-3 lock-all: conflicts are undefined, not errors
	getReq     *RMAReq // lock-all: the request every RGet to target returns

	// The MPI-2 Lock/Unlock handshake. Its three events (lockRequest,
	// unlockRequest, signal) are this record, so scheduling them
	// allocates nothing; act is the target-side record a grant installs.
	w        *Win
	tl       *targetLock
	shm      bool     // the lock word lives in a shared segment
	notify   sim.Time // the target-to-origin leg of a grant or release ack
	grantAt  sim.Time
	grantBy  int  // the releasing world rank a queued grant waited on, or -1
	signaled bool // the pending grant or release has reached the origin
	act      activeEpoch
}

// reopen readies the window's MPI-2 record for a new epoch on target,
// keeping what its range sets have grown.
func (ep *epoch) reopen(target int, lt LockType, tl *targetLock, shm bool) {
	*ep = epoch{target: target, ltype: lt, w: ep.w, tl: tl, shm: shm,
		ranges: ep.ranges[:0], touched: ep.touched, act: ep.act}
	ep.touched.reset()
}

// extend moves the epoch's completion horizon out to t.
func (ep *epoch) extend(t sim.Time) {
	if t > ep.completeAt {
		ep.completeAt = t
	}
}

// settle blocks r until every operation of the epoch has completed
// remotely. completeAt can advance while the rank sleeps (get return
// paths are timed when their request reaches the target), so it
// re-checks until the horizon is stable.
func (ep *epoch) settle(r *Rank) {
	for {
		horizon := ep.completeAt
		r.W.M.SleepUntil(r.P, horizon)
		if ep.completeAt <= horizon {
			return
		}
	}
}

// LocalBuf names an origin-side buffer for RMA: a region, a byte
// offset into it, and a datatype describing the layout from there.
type LocalBuf struct {
	Region *fabric.Region
	Off    int
	Type   Datatype
}

// bytes is the memory the layout touches, from its first byte to one
// past its last; it panics if that runs outside the region.
func (b LocalBuf) bytes() []byte {
	return b.Region.Bytes(b.Region.VA+int64(b.Off), b.Type.Span())
}

// WinCreate collectively creates a window over comm; each rank exposes
// region (which may be nil or zero-length for no local exposure). The
// window's memory is registered with the interconnect at creation, as
// MPI_Win_create does.
func WinCreate(comm *Comm, region *fabric.Region) (*Win, error) {
	return winCreate(comm, region, false)
}

// WinCreateShared creates a window with MPI_Win_allocate_shared
// semantics: ranks sharing a node attach their regions to a per-node
// shared segment, so RMA between them degenerates to direct load/store
// (see SharedQuery), while cross-node access keeps the ordinary RMA
// path. Creation cost is identical to WinCreate — the memory is still
// exposed (and registered) for remote ranks.
func WinCreateShared(comm *Comm, region *fabric.Region) (*Win, error) {
	return winCreate(comm, region, true)
}

func winCreate(comm *Comm, region *fabric.Region, shared bool) (*Win, error) {
	r := comm.r
	w := r.W
	var sz int64
	if region != nil {
		sz = int64(region.Len)
	}
	// The size exchange is part of MPI_Win_create's cost: rank 0 gathers
	// the sizes, builds the shared window state — the one N-entry size
	// table — and broadcasts the window id. It must build the state
	// before broadcasting, since peers look it up as soon as the id
	// arrives.
	var id int
	sizes := comm.GatherI64(0, []int64{sz})
	if comm.rank == 0 {
		id = w.nextWin
		w.nextWin++
		ws := newWinState(id, w, comm, shared)
		for i, s := range sizes {
			ws.sizes[i] = int(s)
		}
		w.wins[id] = ws
	}
	id = int(comm.BcastI64(0, []int64{int64(id)})[0])
	ws := w.wins[id]
	ws.regions[comm.rank] = region
	if ws.shared && region != nil && region.Len > 0 {
		node := w.M.NodeOf(r.ID())
		seg := ws.segs[node]
		if seg == nil {
			seg = w.M.NewShmSegment(node)
			ws.segs[node] = seg
		}
		if err := seg.Attach(r.ID(), region); err != nil {
			return nil, err
		}
	}
	// Register the exposed memory with the device (charged here).
	if region != nil && region.Len > 0 {
		r.P.Elapse(w.M.PinCost(region, fabric.DomainMPI))
	}
	comm.Barrier()
	return &Win{state: ws, comm: comm, rank: comm.rank}, nil
}

// newWinState builds the shared window state skeleton. The group slice
// is shared with the creating communicator (window groups are
// immutable); target locks materialize lazily via lockAt.
func newWinState(id int, w *World, comm *Comm, shared bool) *winState {
	ws := &winState{
		id:      id,
		w:       w,
		group:   comm.group,
		regions: make([]*fabric.Region, comm.Size()),
		sizes:   make([]int, comm.Size()),
		locks:   make([]*targetLock, comm.Size()),
		shared:  shared,
	}
	if shared {
		ws.segs = map[int]*fabric.ShmSegment{}
	}
	return ws
}

// SharedQuery returns the directly-addressable region of a same-node
// target in a shared window (MPI_Win_shared_query). The second result
// is false for cross-node targets, non-shared windows, or targets
// exposing no memory.
func (w *Win) SharedQuery(target int) (*fabric.Region, bool) {
	ws := w.state
	if !ws.shared || target < 0 || target >= len(ws.group) {
		return nil, false
	}
	tw := ws.group[target]
	me := w.comm.r.ID()
	if !ws.w.M.SameNode(me, tw) {
		return nil, false
	}
	seg := ws.segs[ws.w.M.NodeOf(me)]
	if seg == nil {
		return nil, false
	}
	reg := seg.RegionOf(tw)
	if reg == nil {
		return nil, false
	}
	return reg, true
}

// viaShm reports whether ops on target can take the intra-node
// shared-memory path.
func (w *Win) viaShm(target int) bool {
	_, ok := w.SharedQuery(target)
	return ok
}

// segSyncLatency is the cost of one shared-segment synchronization step
// (lock-word CAS, release store): a node-local memory round trip.
func (w *Win) segSyncLatency() sim.Time {
	return sim.FromSeconds(w.state.w.M.Par.LocalLatencyNs / 1e9)
}

// Free collectively destroys the window. All epochs must be closed.
func (w *Win) Free() error {
	if w.cur != nil {
		return fmt.Errorf("mpi: Win.Free with open epoch on target %d", w.cur.target)
	}
	if w.all != nil {
		return fmt.Errorf("mpi: Win.Free in lock-all mode (UnlockAll first)")
	}
	w.comm.Barrier()
	if w.rank == 0 {
		w.state.freed = true
	}
	return w.state.err
}

// validTarget reports whether target is a rank of the window.
func (w *Win) validTarget(target int) bool { return target >= 0 && target < len(w.state.group) }

// LocalRegion returns the memory this rank exposes in the window.
func (w *Win) LocalRegion() *fabric.Region { return w.state.regions[w.rank] }

// Comm returns the communicator the window was created over.
func (w *Win) Comm() *Comm { return w.comm }

// control returns the arrival time of a minimal control message from
// the calling rank to a world rank, charging per-message overhead.
// When the MPI library runs without asynchronous progress, the target
// only services the request once it re-enters the library; the average
// wait is modeled by the tuning's NoProgressDelayNs (SectionV.F).
func (r *Rank) control(toWorld int) sim.Time {
	m := r.W.M
	at := m.SendDataAsync(r.ID(), toWorld, 0, fabric.XferOpt{NoNIC: true})
	return at + r.progressDelay()
}

// progressDelay is the target-side service delay without async progress.
func (r *Rank) progressDelay() sim.Time {
	return sim.FromSeconds(r.W.Tun.NoProgressDelayNs / 1e9)
}

// Lock opens a passive-target access epoch on target (a window rank).
// MPI-2 permits at most one epoch per window per origin; violating
// that returns an error (the restriction ARMCI-MPI's global-buffer
// staging exists to respect).
func (w *Win) Lock(lt LockType, target int) error {
	if w.cur != nil {
		return fmt.Errorf("mpi: Win.Lock(%v,%d): window already locked (target %d); MPI-2 forbids multiple epochs per window",
			lt, target, w.cur.target)
	}
	if w.all != nil {
		return fmt.Errorf("mpi: Win.Lock(%v,%d) while in lock-all mode is erroneous", lt, target)
	}
	if !w.validTarget(target) {
		return fmt.Errorf("mpi: Win.Lock: bad target %d", target)
	}
	r := w.comm.r
	reqAt := r.P.Now()
	r.opOverhead()
	ws := w.state
	targetWorld := ws.group[target]
	p := r.P

	if w.rec == nil {
		w.rec = &epoch{w: w}
	}
	ep := w.rec
	ep.reopen(target, lt, ws.lockAt(target), w.viaShm(target))
	ep.notify = r.W.M.RoundTripTime(targetWorld, r.ID()) / 2
	if ep.shm {
		// The lock word lives in the shared segment: acquiring it is a
		// node-local CAS, with no control message and no target-side
		// progress needed. Arbitration (shared/exclusive, FIFO queue) is
		// unchanged.
		ep.notify = w.segSyncLatency()
	}
	w.cur = ep
	arrive := p.Now()
	if !ep.shm {
		arrive = r.control(targetWorld)
	}
	r.W.M.Eng.AtEvent(arrive, (*lockRequest)(ep))
	for !ep.signaled {
		p.Park("mpi.WinLock")
	}
	ep.openedAt = p.Now()
	ep.completeAt = p.Now()
	r.W.Epochs++
	if lt == LockShared {
		r.W.SharedEpochs++
	} else {
		r.W.ExclEpochs++
	}
	r.W.Obs.Waited(obs.Wait{Kind: obs.WaitLock, Excl: lt == LockExclusive, Rank: r.ID(),
		From: reqAt, To: p.Now(), Peer: targetWorld})
	return nil
}

// lockRequest is an epoch's lock request reaching the target: granted
// at once if the lock is free for its type, else queued.
type lockRequest epoch

func (q *lockRequest) Fire() {
	ep := (*epoch)(q)
	if ep.tl.grantable(ep.ltype) {
		ep.grant(ep.w.comm.r.W.M.Eng.Now(), -1)
	} else {
		ep.tl.queue = append(ep.tl.queue, ep)
	}
}

// grant hands the target's lock to ep at time at; by is the world rank
// whose release made the grant possible (-1 for an uncontended direct
// grant), feeding the critical-path wait-chain attribution. The grant
// notification travels back to the origin.
func (ep *epoch) grant(at sim.Time, by int) {
	ep.act.originWorld, ep.act.ltype = ep.w.comm.r.ID(), ep.ltype
	ep.act.touched.reset()
	ep.active = &ep.act
	ep.tl.holders = append(ep.tl.holders, ep.active)
	ep.grantAt, ep.grantBy = at, by
	ep.w.comm.r.W.M.Eng.AtEvent(at+ep.notify, (*signal)(ep))
}

// signal is a grant or a release acknowledgement reaching the origin,
// which resumes.
type signal epoch

func (s *signal) Fire() {
	ep := (*epoch)(s)
	r := ep.w.comm.r
	ep.signaled = true
	if ep.grantBy >= 0 {
		// A queued grant: name the releasing rank as the edge that ends
		// the origin's lock wait.
		r.W.Obs.WakeGrant(r.ID(), ep.grantBy, ep.grantAt)
	}
	r.W.M.Eng.Unpark(r.P)
}

// release drops the epoch's hold at the target and hands the lock to
// eligible waiters. Runs in event context at the target; by is the
// world rank performing the release (the grant chain's blocking rank).
func (ws *winState) release(tl *targetLock, ae *activeEpoch, now sim.Time, by int) {
	for i, h := range tl.holders {
		if h == ae {
			tl.holders = append(tl.holders[:i], tl.holders[i+1:]...)
			break
		}
	}
	// Grant queued waiters: an exclusive waiter needs an empty holder
	// set; shared waiters can be granted together until an exclusive
	// waiter is reached.
	for len(tl.queue) > 0 {
		next := tl.queue[0]
		if next.ltype == LockExclusive {
			if len(tl.holders) != 0 {
				return
			}
			tl.queue = tl.queue[1:]
			next.grant(now, by)
			return
		}
		if tl.heldExclusive() {
			return
		}
		tl.queue = tl.queue[1:]
		next.grant(now, by)
	}
}

// Unlock closes the epoch on target, blocking until every operation
// issued in the epoch has completed at the target (MPI_Win_unlock
// guarantees both local and remote completion).
func (w *Win) Unlock(target int) error {
	ep := w.cur
	if ep == nil || ep.target != target {
		return fmt.Errorf("mpi: Win.Unlock(%d): no epoch open on that target", target)
	}
	r := w.comm.r
	r.opOverhead()
	targetWorld := w.state.group[target]
	p := r.P
	tU := p.Now()

	// Wait for the slowest operation of the epoch to complete remotely.
	ep.settle(r)
	// Unlock handshake: release at the target, ack back to the origin.
	// On the shared-memory path the release is a node-local store on the
	// lock word — no control message, no target-side progress.
	ep.signaled, ep.grantBy = false, -1
	arrive := p.Now() + w.segSyncLatency()
	if !ep.shm {
		arrive = r.control(targetWorld)
	}
	r.W.M.Eng.AtEvent(arrive, (*unlockRequest)(ep))
	for !ep.signaled {
		p.Park("mpi.WinUnlock")
	}
	r.W.Obs.Waited(obs.Wait{Kind: obs.WaitEpoch, Excl: ep.ltype == LockExclusive, Rank: r.ID(),
		From: tU, To: p.Now(), Open: ep.openedAt, Peer: targetWorld, N: ep.nops})
	w.cur = nil
	return w.state.err
}

// unlockRequest is an epoch's release reaching the target's lock. Over
// the wire an acknowledgement travels back; on a shared segment the
// origin did the release itself and resumes at once.
type unlockRequest epoch

func (q *unlockRequest) Fire() {
	ep := (*epoch)(q)
	r := ep.w.comm.r
	eng := r.W.M.Eng
	ep.w.state.release(ep.tl, ep.active, eng.Now(), r.ID())
	if ep.shm {
		(*signal)(ep).Fire()
		return
	}
	eng.AtEvent(eng.Now()+ep.notify, (*signal)(ep))
}

// effRateFor returns the MPI transfer rate on this machine for a
// message of n bytes, honouring a poorly tuned large-transfer path.
func (r *Rank) effRateFor(n int) float64 {
	frac := r.W.Tun.BandwidthFrac
	if r.W.Tun.LargeFrac > 0 && n >= r.W.Tun.LargeAt {
		frac = r.W.Tun.LargeFrac
	}
	return r.W.M.Par.Bandwidth * frac
}

// chargeRMAOverheads charges per-op software overhead, including the
// long-epoch queue slowdown defect, and bumps counters.
func (w *Win) chargeRMAOverheads(ep *epoch) {
	r := w.comm.r
	tun := r.W.Tun
	over := tun.OpOverheadNs
	if tun.QueueSlowdownNs > 0 && ep.nops > tun.QueueThreshold {
		over += tun.QueueSlowdownNs * float64(ep.nops-tun.QueueThreshold)
	}
	if tun.ScalePenaltyNs > 0 {
		over += tun.ScalePenaltyNs * log2f(len(w.state.group))
	}
	r.P.Elapse(sim.FromSeconds(over / 1e9))
	r.W.RMAOps++
	ep.nops++
}

func log2f(n int) float64 {
	f := 0.0
	for n > 1 {
		f++
		n >>= 1
	}
	return f
}

// originXferRate decides the data rate for moving bytes between the
// origin buffer and the network, applying the registration model: an
// unregistered origin buffer either goes through bounce buffers (small
// transfers) or pays on-demand registration (large transfers).
func (w *Win) originXferRate(buf LocalBuf, nbytes int) float64 {
	r := w.comm.r
	m := r.W.M
	full := r.effRateFor(nbytes)
	if m.Par.PinPageNs <= 0 {
		return full
	}
	if buf.Region.PinnedFor(fabric.DomainMPI) {
		return full
	}
	if nbytes <= m.Par.BounceThreshold {
		if m.Par.BounceRate < full {
			return m.Par.BounceRate
		}
		return full
	}
	// On-demand registration: pay the pin cost now, then run at full rate.
	r.P.Elapse(m.PinCost(buf.Region, fabric.DomainMPI))
	return full
}

// checkEpochOp validates an op's target range against the same epoch's
// previous ops and records it; also records into the target-side
// active epoch for cross-origin checking (done at issue time — the
// simulation's cooperative scheduling makes issue order a valid
// serialization of the real concurrency).
func (w *Win) checkEpochOp(ep *epoch, target int, newRng rng) error {
	ws := w.state
	if !w.comm.r.W.Checked {
		return nil
	}
	if newRng.lo < 0 || newRng.hi > ws.sizes[target] {
		return fmt.Errorf("mpi: RMA access [%d,%d) outside window of size %d at rank %d",
			newRng.lo, newRng.hi, ws.sizes[target], target)
	}
	if ep.relaxed {
		return nil // MPI-3: conflicting outcomes are undefined, not erroneous
	}
	if ep.touched.conflicts(newRng) {
		// The index found a conflict; the first one in issue order is
		// the one the error names.
		for _, old := range ep.ranges {
			if old.conflicts(newRng) {
				return fmt.Errorf("mpi: conflicting RMA operations in one epoch at target %d: [%d,%d) %v vs [%d,%d) %v",
					target, old.lo, old.hi, old.kind, newRng.lo, newRng.hi, newRng.kind)
			}
		}
		panic(fmt.Sprintf("mpi: epoch index reports a conflict for [%d,%d) %v at target %d, the issue-order scan of %d ranges finds none",
			newRng.lo, newRng.hi, newRng.kind, target, len(ep.ranges)))
	}
	ep.ranges = append(ep.ranges, newRng)
	ep.touched.add(newRng)
	tl := ws.lockAt(target)
	for _, h := range tl.holders {
		if h == ep.active {
			continue
		}
		if h.touched.conflicts(newRng) {
			return fmt.Errorf("mpi: conflicting RMA operations from origins %d and %d at target %d (shared-lock data race)",
				h.originWorld, w.comm.r.ID(), target)
		}
	}
	if ep.active != nil {
		ep.active.touched.add(newRng)
	}
	return nil
}

// rmaOp is one one-sided call, compiled by its exported constructor
// (Put, RGet, FetchAndOp, ...) into a by-value descriptor and run by
// issue. Its kind decides what lands; the route issue picks for its
// target, once, from SharedQuery decides what it costs (costShm,
// costWire). DESIGN.md §4 has the walk-through and the invariant that
// keeps the split honest: no cost-model call moves within a route.
type rmaOp struct {
	kind   opKind
	op     Op       // what the landing folds with: OpReplace for a put, OpNoOp for a get
	buf    LocalBuf // origin side; the atomics have only a layout
	target int      // window rank
	at     LocalBuf // target side: displacement and layout, and the region the route reaches

	operand, compare int64 // atomics: FetchAndOp's operand or CAS's new value; CAS's comparand

	// snap: the origin is the caller's again before the bytes land (RPut,
	// RAccumulate), so a put or accumulate over the wire lands a copy
	// taken at issue rather than the origin itself.
	snap bool
}

// xferOp describes a put, get or accumulate.
func xferOp(kind opKind, op Op, buf LocalBuf, target, tdisp int, ttype Datatype) rmaOp {
	return rmaOp{kind: kind, op: op, buf: buf, target: target, at: LocalBuf{Off: tdisp, Type: ttype}}
}

// issue runs one operation: prologue, the route's cost step, tail. It
// returns the epoch the operation joined (request-based calls track its
// horizon) and, for an atomic, the value it displaced.
func (w *Win) issue(d rmaOp) (*epoch, int64, error) {
	r := w.comm.r
	t0 := r.P.Now()
	ep, err := w.prologue(d)
	if err != nil {
		return nil, 0, err
	}
	treg, shm := w.SharedQuery(d.target)
	if !shm {
		treg = w.state.regions[d.target]
	}
	d.at.Region = treg
	var old int64
	var agentAt, done sim.Time
	if shm {
		// Complete on return: the horizon is now.
		if old, err = w.costShm(d); err != nil {
			return nil, 0, err
		}
		done = r.P.Now()
	} else {
		old, agentAt, done = w.costWire(d, ep, t0)
	}
	ep.extend(done)

	// One emit per operation: what was issued, over which route.
	if o := r.W.Obs; o != nil {
		targetWorld := w.state.group[d.target]
		o.RMA(obs.RMA{Kind: kinds[d.kind].ev, Red: d.op, Shm: shm,
			Packed: !d.buf.Type.Contig() || !d.at.Type.Contig(),
			Origin: r.ID(), Target: targetWorld, Bytes: d.at.Type.Size(), T0: t0, Done: done,
			AgentLane: obs.LaneServer(r.W.M.NodeOf(targetWorld)), AgentAt: agentAt})
	}
	return ep, old, nil
}

// prologue is what every kind must pass before it costs anything: a
// target in the window, an epoch that covers it (the MPI-2 epoch locked
// on that target, or lock-all's per-target accounting epoch), matching
// origin and target sizes and, with checking on, bounds and the MPI-2
// conflict rules. Only then is the per-op overhead charged.
func (w *Win) prologue(d rmaOp) (*epoch, error) {
	if !w.validTarget(d.target) {
		return nil, fmt.Errorf("mpi: %v: bad target %d", d.kind, d.target)
	}
	var ep *epoch
	switch {
	case w.cur != nil && w.cur.target == d.target:
		ep = w.cur
	case w.all != nil:
		ep = w.lockAllEpoch(d.target)
	default:
		return nil, fmt.Errorf("mpi: %v on target %d without an open epoch or lock-all", d.kind, d.target)
	}
	if d.buf.Type.Size() != d.at.Type.Size() {
		return nil, fmt.Errorf("mpi: RMA origin/target size mismatch: %d vs %d bytes",
			d.buf.Type.Size(), d.at.Type.Size())
	}
	if err := w.checkEpochOp(ep, d.target, rng{lo: d.at.Off, hi: d.at.Off + d.at.Type.Span(), kind: d.kind, op: d.op}); err != nil {
		return nil, err
	}
	w.chargeRMAOverheads(ep)
	return ep, nil
}

// pack is the origin side of a put or accumulate at issue: the origin's
// bounds are checked, a noncontiguous layout pays its pack time, and
// with snap the origin's bytes are copied into a dense pooled buffer
// (released by whoever lands it). Without snap it returns nil: the
// bytes are read where they are when they land.
func (w *Win) pack(buf LocalBuf, snap bool) []byte {
	r := w.comm.r
	src := buf.bytes()
	if !buf.Type.Contig() {
		t0 := r.P.Now()
		r.W.M.CopyLocal(r.P, buf.Type.Size()) // pack cost
		r.W.Obs.Waited(obs.Wait{Kind: obs.WaitPack, Rank: r.ID(), From: t0, To: r.P.Now(), N: buf.Type.Size()})
	}
	if !snap {
		return nil
	}
	return w.snapshot(src, buf.Type)
}

// snapshot gathers t's bytes out of src into a pooled dense buffer.
func (w *Win) snapshot(src []byte, t Datatype) []byte {
	data := w.comm.r.W.M.GetBuf(t.Size())
	PackInto(data, t, src)
	return data
}

// costWire is the cost step of the fabric route. It returns the horizon
// the operation is known to complete by, for an accumulate when the
// target's agent starts on it, and for an atomic the value displaced.
// Bytes cross the wire in three shapes. Put and accumulate push the
// origin: pack, registration, one transfer, landing at its arrival
// (behind the target's agent for an accumulate). The landing reads the
// origin buffer itself, which MPI leaves untouchable until the epoch
// completes — that is what lets a real MPI send it by RDMA — unless
// the call returned a completed request (RPut, RAccumulate) or the
// target is the origin's own rank: then it lands the snapshot pack took
// at issue. Get pulls: a control message out, and only when it arrives
// is the target read — straight into the origin buffer, which is
// undefined until the get completes (staged for a self-get) — and the
// reply timed (NIC occupancy at the target), so the horizon returned is
// a lower bound refined from inside the event — which is why settle
// re-checks. Both ride on a pooled xfer record. The atomics are a round
// trip through the agent, sat out parked.
func (w *Win) costWire(d rmaOp, ep *epoch, t0 sim.Time) (old int64, agentAt, done sim.Time) {
	r := w.comm.r
	m, ws := r.W.M, w.state
	origin, targetWorld := r.ID(), ws.group[d.target]
	o := r.W.Obs
	tl := ws.lockAt(d.target)
	kind, op, at := d.kind, d.op, d.at
	switch {
	case kind == opGet:
		buf, nbytes := d.buf, at.Type.Size()
		rate := w.originXferRate(buf, nbytes)
		reqArrive := r.control(targetWorld)
		x := r.W.xfers.Get()
		*x = xfer{ws: ws, kind: opGet, op: OpReplace, at: at, buf: buf, src: targetWorld, dst: origin,
			rate: rate, ep: ep, t0: t0}
		m.Eng.AtEvent(reqArrive, (*getRequest)(x))
		done = reqArrive + sim.FromSeconds(float64(nbytes)/rate) + sim.FromSeconds(m.Par.LatencyNs/1e9)

	case kind.atomic():
		o.Sent(origin, targetWorld, profile.MsgAmo, profile.RouteRMA, 8)
		arrive := r.control(targetWorld)
		a := r.W.amos.Get()
		*a = amo{ws: ws, tl: tl, kind: kind, op: op, at: at, operand: d.operand, compare: d.compare,
			p: r.P, origin: origin, target: targetWorld}
		m.Eng.AtEvent(arrive, a)
		for a.stage != amoReplied {
			r.P.Park(kinds[kind].park)
		}
		old, done = a.old, r.P.Now()
		r.W.amos.Put(a)

	default:
		// A self target's origin may overlap the bytes it lands on: it
		// lands a copy taken at issue, as a direct transport's put does.
		data, nbytes := w.pack(d.buf, d.snap || targetWorld == origin), at.Type.Size()
		rate := w.originXferRate(d.buf, nbytes)
		arrive := m.SendDataAsync(origin, targetWorld, nbytes, fabric.XferOpt{Rate: rate}) + r.progressDelay()
		o.Wire(origin, origin, targetWorld, kinds[kind].class, profile.RouteRMA, nbytes)
		landAt := arrive
		if kind == opAcc {
			// The target agent applies the reduction at the accumulate
			// rate, serialized per target.
			accRate := m.Par.AccumRate
			if r.W.Tun.AccumRate > 0 {
				accRate = r.W.Tun.AccumRate
			}
			agentAt, landAt = tl.serve(arrive, sim.FromSeconds(float64(nbytes)/accRate))
			o.Booked(obs.Booking{Rank: origin, At: arrive, Start: agentAt, Done: landAt})
		}
		x := r.W.xfers.Get()
		*x = xfer{ws: ws, kind: kind, op: op, at: at, buf: d.buf, data: data, src: origin, dst: targetWorld}
		m.Eng.AtEvent(landAt, (*landing)(x))
		done = landAt
		if kind == opPut && !at.Type.Contig() {
			done += m.CopyTime(nbytes) // the target unpacks
		}
	}
	return old, agentAt, done
}

// xfer is one wire put, accumulate or get in flight, as the events it
// is scheduled as: a get's request reaching the target (getRequest),
// then bytes arriving where they fold (landing) — at the target for a
// put or accumulate, in the origin buffer for a get's reply. Records
// come from the world's free list and go back once landed, so a warm
// operation allocates none; the list is job-scoped and the event order
// deterministic, so which record serves which operation repeats too.
type xfer struct {
	ws       *winState
	kind     opKind
	op       Op
	at       LocalBuf // the target side: where a put lands, what a get reads
	buf      LocalBuf // the origin side: what a put lands, where a get stores
	data     []byte   // the issue-time snapshot of buf a put lands instead, or nil
	src, dst int      // world ranks the bytes travel from and to

	// A get's request: at what rate the reply travels, the epoch whose
	// horizon it refines, and the issue time.
	rate float64
	ep   *epoch
	t0   sim.Time
}

// getRequest is a get's request reaching the target: the target's bytes
// are copied into the origin buffer — the one read of the target, and
// the one copy — and the reply is timed back; its landing moves nothing.
// A self-get, whose source and destination may overlap, is staged
// through a pooled buffer instead.
type getRequest xfer

func (q *getRequest) Fire() {
	x := (*xfer)(q)
	ws := x.ws
	m, o := ws.w.M, ws.w.Obs
	target, origin, nbytes := x.src, x.dst, x.at.Type.Size()
	var err error
	if target == origin {
		data := m.GetBuf(nbytes)
		if err = ws.land(opGet, OpNoOp, x.at, LocalBuf{}, data); err == nil {
			err = ws.land(opGet, x.op, x.buf, LocalBuf{}, data)
		}
	} else {
		err = ws.land(opGet, x.op, x.buf, x.at, nil)
	}
	if err != nil {
		ws.w.xfers.Put(x)
		return
	}
	back := m.SendDataAsync(target, origin, nbytes, fabric.XferOpt{Rate: x.rate})
	o.Wire(origin, target, origin, profile.MsgGet, profile.RouteRMA, nbytes)
	arrive := back
	if !x.at.Type.Contig() || !x.buf.Type.Contig() {
		back += m.CopyTime(nbytes)
	}
	x.ep.extend(back)
	o.GetDone(origin, target, nbytes, x.t0, arrive, back)
	x.ep = nil
	m.Eng.AtEvent(back, (*landing)(x))
}

// landing is an operation's bytes arriving where they fold: a put's or
// an accumulate's at the target, from the origin buffer or its
// snapshot; a get's reply, already stored, only completes.
type landing xfer

func (l *landing) Fire() {
	x := (*xfer)(l)
	ws := x.ws
	ws.w.Obs.Landed(x.src, x.dst, kinds[x.kind].class, profile.RouteRMA, x.at.Type.Size())
	if x.kind != opGet {
		ws.land(x.kind, x.op, x.at, x.buf, x.data)
	}
	ws.w.xfers.Put(x)
}

// amo is one wire atomic in flight, as the three events it is scheduled
// as: the request reaching the target, which books the target's agent;
// the agent executing it, which reads and writes the window and times
// the reply; and the reply reaching the origin, parked until then,
// which reads the displaced value out of the record and files it. A
// window error at the agent wakes the origin without a reply. Records
// come from the world's free list, so a warm atomic allocates nothing.
type amo struct {
	ws               *winState
	tl               *targetLock
	kind             opKind
	op               Op
	at               LocalBuf
	operand, compare int64
	p                *sim.Proc // the origin, parked on the reply
	origin, target   int       // world ranks
	stage            amoStage
	old              int64 // the value displaced, for the origin to read
}

// amoStage is the event an amo fires as next.
type amoStage int

const (
	amoArrive amoStage = iota
	amoExecute
	amoReply
	amoReplied // the origin may read old
)

func (a *amo) Fire() {
	ws := a.ws
	m, o := ws.w.M, ws.w.Obs
	eng := m.Eng
	switch a.stage {
	case amoArrive:
		start, fin := a.tl.serve(eng.Now(), amoProcessNs)
		o.Booked(obs.Booking{Rank: a.origin, At: eng.Now(), Start: start, Done: fin})
		a.stage = amoExecute
		eng.AtEvent(fin, a)
	case amoExecute:
		o.Landed(a.origin, a.target, profile.MsgAmo, profile.RouteRMA, 8)
		var err error
		if a.old, err = ws.rmw(a.kind, a.op, a.at, a.operand, a.compare); err != nil {
			a.stage = amoReplied // nothing to send back: the window's error wakes the origin
			eng.Unpark(a.p)
			return
		}
		back := m.SendDataAsync(a.target, a.origin, 0, fabric.XferOpt{NoNIC: true})
		a.stage = amoReply
		eng.AtEvent(back, a)
	case amoReply:
		a.stage = amoReplied
		eng.Unpark(a.p)
	}
}

// costShm is the cost step of the shared-segment route: the origin CPU
// moves the bytes itself — one direct, possibly strided copy; no NIC,
// registration or pack charge — and the operation, a get included, is
// complete on return. Accumulates and atomics are read-modify-writes by
// the origin CPU too, but stay serialized per target on the horizon the
// wire agent also uses: concurrent same-op accumulates under shared
// locks must not interleave elementwise.
func (w *Win) costShm(d rmaOp) (int64, error) {
	r := w.comm.r
	m, ws := r.W.M, w.state
	dst, op := d.at, d.op
	var data []byte
	switch d.kind {
	case opPut, opAcc:
		data = w.snapshot(d.buf.bytes(), d.buf.Type)
	case opGet:
		data = m.GetBuf(d.at.Type.Size())
		if err := ws.land(d.kind, OpNoOp, d.at, LocalBuf{}, data); err != nil {
			return 0, err
		}
		dst, op = d.buf, OpReplace
	}
	if d.kind == opPut || d.kind == opGet {
		t0 := r.P.Now()
		m.ShmCopy(r.P, len(data))
		r.W.Obs.Waited(obs.Wait{Kind: obs.WaitShmCopy, Rank: r.ID(), From: t0, To: r.P.Now()})
	} else {
		cost := sim.Time(amoProcessNs)
		if d.kind == opAcc {
			cost = m.ShmCopyTime(len(data))
			m.ShmAccount(len(data))
		}
		start, fin := ws.lockAt(d.target).serve(r.P.Now(), cost)
		r.W.Obs.Booked(obs.Booking{Rank: r.ID(), At: r.P.Now(), Start: start, Done: fin})
		m.SleepUntil(r.P, fin)
	}
	if d.kind.atomic() {
		return ws.rmw(d.kind, op, dst, d.operand, d.compare)
	}
	return 0, ws.land(d.kind, op, dst, LocalBuf{}, data)
}

// land is the one place a put, get or accumulate touches window or
// origin memory, on either route, in rank or event context. As in MPI-3
// the kinds are one family: from's bytes are folded into at's under op
// (OpReplace is a put, and a get's store into its origin buffer), in
// one walk over both layouts (foldRuns). A caller that passes no from
// (a zero LocalBuf) lands data, a dense snapshot, instead — also when
// data is nil, as a zero-byte snapshot is; under OpNoOp data is
// instead the dense buffer at's bytes are gathered into (a staged
// get's read of its target). The payload goes back to the pool
// here, exactly once, whether or not the step failed; only a successful
// gather keeps it, as the copy it is about to be stored from.
func (ws *winState) land(kind opKind, op Op, at, from LocalBuf, data []byte) error {
	err := ws.apply(kind.String(), func() {
		var ar, fr [1]Segment
		mem, memRuns := at.bytes(), runs(at.Type, &ar)
		switch {
		case op == OpNoOp:
			foldRuns(OpReplace, data, dense(len(data), &fr), mem, memRuns)
		case data != nil || from.Region == nil:
			foldRuns(op, mem, memRuns, data, dense(len(data), &fr))
		default:
			foldRuns(op, mem, memRuns, from.bytes(), runs(from.Type, &fr))
		}
	})
	if op != OpNoOp || err != nil {
		ws.w.M.PutBuf(data)
	}
	return err
}

// rmw is an atomic's step at the target: the eight bytes at `at` are
// read, updated as the kind says, and what was there returned.
func (ws *winState) rmw(kind opKind, op Op, at LocalBuf, operand, compare int64) (old int64, err error) {
	err = ws.apply(kind.String(), func() {
		mem := at.bytes()
		old = int64(binary.LittleEndian.Uint64(mem))
		if nv, store := amoUpdate(kind, op, old, operand, compare); store {
			binary.LittleEndian.PutUint64(mem, uint64(nv))
		}
	})
	return old, err
}

// apply runs one step that touches window or origin memory, converting
// a panic (a bad displacement with checking off) into the window's
// error. It holds the only recover on the RMA path.
func (ws *winState) apply(op string, step func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mpi: %s apply failed: %v", op, rec)
			ws.setErr(err)
		}
	}()
	step()
	return nil
}

// Put transfers the origin buffer into the target window at byte
// displacement tdisp with layout ttype. Nonblocking: completion is
// guaranteed by Unlock.
func (w *Win) Put(buf LocalBuf, target, tdisp int, ttype Datatype) error {
	_, _, err := w.issue(xferOp(opPut, OpReplace, buf, target, tdisp, ttype))
	return err
}

// Get transfers from the target window into the origin buffer.
// Nonblocking: the origin buffer holds the data only after Unlock.
func (w *Win) Get(buf LocalBuf, target, tdisp int, ttype Datatype) error {
	_, _, err := w.issue(xferOp(opGet, OpNoOp, buf, target, tdisp, ttype))
	return err
}

// Accumulate applies the origin buffer into the target window with the
// reduction op (element type float64 for arithmetic ops; OpReplace
// behaves like Put with element granularity). Nonblocking.
func (w *Win) Accumulate(buf LocalBuf, op Op, target, tdisp int, ttype Datatype) error {
	_, _, err := w.issue(xferOp(opAcc, op, buf, target, tdisp, ttype))
	return err
}
