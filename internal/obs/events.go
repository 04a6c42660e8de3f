package obs

import (
	"fmt"

	"repro/internal/obs/critpath"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// The event vocabulary: everything a hook site in fabric, mpi, armci,
// armcimpi or dataserver can say, and the one place that knows which
// instruments record it — under which counter name, span category,
// span name and argument keys, as which phase, matrix cell or edge.
// Two rules bind every event (DESIGN.md, "Observability events"): it
// fans out in the order and with the values of the per-instrument calls
// it replaced, so reports and traces are byte-for-byte what they were;
// and a nil Recorder returns before anything is built — events are
// plain arguments or by-value structs of ranks, enums, byte counts and
// times, and names are composed here, behind the check.

// --- operation scopes -------------------------------------------------

// OpBegin opens (or nests into) rank's ARMCI operation scope: phases
// reported until the matching OpEnd are attributed to op.
func (r *Recorder) OpBegin(rank int, op profile.Op) {
	if r == nil {
		return
	}
	r.prof.Begin(rank, op)
}

// OpEnd closes rank's operation scope (or unwinds one nesting level).
func (r *Recorder) OpEnd(rank int) {
	if r == nil {
		return
	}
	r.prof.End(rank)
}

// OpDone records an operation that completed over [t0, t1): a
// contiguous one with the rank at the other end and its n payload
// bytes, a strided one (method non-nil) with the transfer method its
// route chose and its n-byte segments.
func (r *Recorder) OpDone(rank int, op profile.Op, t0, t1 sim.Time, peer, n int, method fmt.Stringer) {
	if r == nil || r.tr == nil {
		return
	}
	args := []arg{{"to", peer}, {"bytes", n}}
	switch {
	case method != nil:
		args = []arg{{"method", method.String()}, {"seg", n}}
	case op == profile.OpGet:
		args[0].Key = "from"
	}
	r.tr.span(r.pid, rank, "armci", op.String(), t0, t1, args)
}

// --- waited intervals -------------------------------------------------

// WaitKind says what a rank spent an interval on.
type WaitKind uint8

const (
	WaitLock        WaitKind = iota // window lock, request to grant (Peer: target; opens an epoch)
	WaitEpoch                       // unlock: the epoch's operations completing remotely (Peer: target, N: ops, Open)
	WaitFlush                       // MPI-3 flush of Peer, or of every target when Peer < 0
	WaitPack                        // origin-side datatype pack of N bytes
	WaitShmCopy                     // copy through a shared-memory segment
	WaitStage                       // staging N bytes of a global buffer into private memory
	WaitLeaderQueue                 // queueing for the node leader's staging pipe
	WaitLeaderCopy                  // copying N bytes into the node leader's staging buffer
	WaitMutex                       // ARMCI mutex acquisition (Peer: host, N: waiters found queued)
)

// Wait is one waited interval [From, To) on Rank.
type Wait struct {
	Kind     WaitKind
	Excl     bool // WaitLock, WaitEpoch: an exclusive lock
	Rank     int
	From, To sim.Time
	Open     sim.Time // WaitEpoch: when the epoch opened (its span covers its whole life)
	Peer, N  int
}

// waits is the fan-out of each WaitKind: the time metric, histogram,
// counter bumped by one, counter bumped by N and gauge raised to N; the
// profiler phase (NumPhases: none); the trace span with the argument
// keys of Peer and N ("" = not recorded). Of a pair of names the second
// is the one under an exclusive lock.
var waits = [...]struct {
	time               [2]string
	hist, count, bytes string
	gauge              string
	phase              profile.Phase
	cat                string
	span               [2]string
	peerKey, nKey      string
}{
	WaitLock:        {time: [2]string{TLockWaitShared, TLockWaitExcl}, hist: HLockWait, count: CEpochs, phase: profile.PhaseLockWait, cat: "mpi", span: [2]string{"lock(shared)", "lock(exclusive)"}, peerKey: "target"},
	WaitEpoch:       {phase: profile.PhaseEpochWait, cat: "epoch", span: [2]string{"epoch(shared)", "epoch(exclusive)"}, peerKey: "target", nKey: "ops"},
	WaitFlush:       {count: CEpochFlush, phase: profile.PhaseEpochWait, cat: "epoch", span: [2]string{"flush"}, peerKey: "target"},
	WaitPack:        {time: [2]string{TPack}, bytes: CPackBytes, phase: profile.PhasePack, cat: "dt", span: [2]string{"pack"}, nKey: "bytes"},
	WaitShmCopy:     {phase: profile.PhaseShmCopy},
	WaitStage:       {count: CStaged, phase: profile.NumPhases, cat: "armci", span: [2]string{"stage"}, nKey: "bytes"},
	WaitLeaderQueue: {phase: profile.PhaseLeaderQueue},
	WaitLeaderCopy:  {count: CDartStaged, bytes: CDartStagedBytes, phase: profile.PhaseLeaderCopy},
	WaitMutex:       {time: [2]string{TMutexWait}, gauge: GMutexQueue, phase: profile.PhaseLockWait, cat: "armci", span: [2]string{"mutex.lock"}, peerKey: "host", nKey: "queued"},
}

// Waited records one waited interval.
func (r *Recorder) Waited(w Wait) {
	if r == nil {
		return
	}
	k := &waits[w.Kind]
	if name := k.time[0]; name != "" {
		if w.Excl {
			name = k.time[1]
		}
		r.m.AddTime(w.Rank, name, w.To-w.From)
	}
	if k.hist != "" {
		r.m.Observe(w.Rank, k.hist, w.To-w.From)
	}
	if k.count != "" {
		r.m.Add(w.Rank, k.count, 1)
	}
	if k.bytes != "" {
		r.m.Add(w.Rank, k.bytes, int64(w.N))
	}
	if k.gauge != "" {
		r.m.MaxGauge(w.Rank, k.gauge, int64(w.N))
	}
	if k.phase < profile.NumPhases {
		r.prof.PhaseAt(w.Rank, k.phase, w.From, w.To)
	}
	if r.tr == nil || k.span[0] == "" {
		return
	}
	name, start := k.span[0], w.From
	switch {
	case w.Excl:
		name = k.span[1]
	case w.Kind == WaitFlush && w.Peer < 0:
		name = "flush_all"
	}
	if w.Kind == WaitEpoch {
		start = w.Open
	}
	var args []arg
	if k.peerKey != "" && w.Peer >= 0 {
		args = append(args, arg{k.peerKey, w.Peer})
	}
	if k.nKey != "" {
		args = append(args, arg{k.nKey, w.N})
	}
	r.tr.span(r.pid, w.Rank, k.cat, name, start, w.To, args)
}

// --- transfers, bookings, landings ------------------------------------

// Xfer is one transfer the fabric timed: Bytes from rank Src to rank
// Dst, issued at Now, clear of the origin's software overheads at Base,
// on the wire from Start (after link queueing), arrived at Arrive. It
// occupies the NICs of nodes NicS and NicD for Occupy, unless it
// bypasses the links (same node, pure control): NicS < 0.
type Xfer struct {
	Src, Dst, Bytes          int
	NicS, NicD               int
	Now, Base, Start, Arrive sim.Time
	Occupy                   sim.Time
}

// Xfer records a timed transfer: the origin's injection counters and,
// when it occupies the links, both NICs' busy time and statistics and
// the origin NIC's lane span. The timing is kept for Wire.
func (r *Recorder) Xfer(x Xfer) {
	if r == nil {
		return
	}
	r.last = x
	r.m.Add(x.Src, CFabMsgs, 1)
	r.m.Add(x.Src, CFabBytes, int64(x.Bytes))
	if x.NicS < 0 {
		return
	}
	r.m.LinkBusy(x.NicS, x.Occupy)
	r.m.LinkBusy(x.NicD, x.Occupy)
	queued, backlog := x.Start-x.Base, x.Start+x.Occupy-x.Now
	r.prof.Link(x.NicS, x.Bytes, queued, x.Occupy, backlog)
	r.prof.Link(x.NicD, x.Bytes, queued, x.Occupy, backlog)
	if r.tr != nil {
		r.tr.span(r.pid, laneNIC(x.NicS), "nic", "xfer", x.Start, x.Start+x.Occupy,
			[]arg{{"bytes", x.Bytes}, {"dst", x.Dst}})
	}
}

// Wire claims the transfer the fabric has just timed from src for
// rank's open operation — its link queueing, then its serialization and
// flight — and books its send side in the communication matrix.
func (r *Recorder) Wire(rank, src, dst int, class profile.MsgClass, route profile.Route, bytes int) {
	if r == nil {
		return
	}
	x, pr := &r.last, r.prof
	pr.PhaseAt(rank, profile.PhaseWireQueue, x.Base, x.Start)
	pr.PhaseAt(rank, profile.PhaseWire, x.Start, x.Arrive)
	pr.Send(src, dst, class, route, bytes)
}

// Sent books bytes leaving src for dst in the communication matrix (a
// payload whose transfer is not a Wire: control-sized or copied).
func (r *Recorder) Sent(src, dst int, class profile.MsgClass, route profile.Route, bytes int) {
	if r == nil {
		return
	}
	r.prof.Send(src, dst, class, route, bytes)
}

// Landed books bytes from src applied at dst: the matrix's receive
// side, tallied where the payload lands.
func (r *Recorder) Landed(src, dst int, class profile.MsgClass, route profile.Route, bytes int) {
	if r == nil {
		return
	}
	r.prof.Recv(src, dst, class, route, bytes)
}

// Booking is one reservation of a target-side serial agent on behalf of
// Rank's operation: the request reached it at At, was served from Start
// (after whatever was queued ahead) and finished at Done. A data
// server's names its trace lane (LaneServer) and what it served; a NIC
// agent's leaves Lane zero — its span belongs to the operation (RMA).
type Booking struct {
	Rank            int
	At, Start, Done sim.Time
	Lane            int
	Class           profile.MsgClass
	Bytes           int
}

// Booked records one booking: the queue and service phases and, for a
// data server, the request counters and the server-lane span.
func (r *Recorder) Booked(k Booking) {
	if r == nil {
		return
	}
	r.prof.PhaseAt(k.Rank, profile.PhaseTargetQueue, k.At, k.Start)
	r.prof.PhaseAt(k.Rank, profile.PhaseTargetProc, k.Start, k.Done)
	if k.Lane == 0 {
		return
	}
	r.m.Add(k.Rank, CDsRequests, 1)
	r.m.AddTime(k.Rank, TDsWait, k.Start-k.At)
	if r.tr != nil {
		r.tr.span(r.pid, k.Lane, "ds", k.Class.String(), k.Start, k.Done,
			[]arg{{"origin", k.Rank}, {"bytes", k.Bytes}})
	}
}

// --- MPI one-sided operations ------------------------------------------

// RMAKind is the kind of an MPI one-sided operation.
type RMAKind uint8

const (
	RMAPut RMAKind = iota
	RMAGet
	RMAAcc
	RMAFetchOp // atomics from here on: eight bytes of control, not payload
	RMACas
)

var rmaKinds = [...]struct {
	metric, span string
	class        profile.MsgClass
}{
	RMAPut:     {COpsPut, "put", profile.MsgPut},
	RMAGet:     {COpsGet, "get", profile.MsgGet},
	RMAAcc:     {COpsAcc, "acc", profile.MsgAcc},
	RMAFetchOp: {COpsAmo, "fetch_and_op", profile.MsgAmo},
	RMACas:     {COpsAmo, "compare_and_swap", profile.MsgAmo},
}

// RMA is one MPI one-sided operation as issued: Origin moved Bytes to
// or from Target between T0 and the horizon Done it is known to
// complete by, over the wire or (Shm) through the shared segment,
// Packed when either layout is noncontiguous. Red names an accumulate's
// or fetch-and-op's reduction. A wire accumulate passes through the
// target's agent, on trace lane AgentLane from AgentAt.
type RMA struct {
	Kind           RMAKind
	Red            fmt.Stringer
	Shm, Packed    bool
	Origin, Target int
	Bytes          int
	T0, Done       sim.Time
	AgentLane      int
	AgentAt        sim.Time
}

// RMA records one issued operation: its op and byte counters, both
// matrix sides of a shared-segment copy (it completes synchronously at
// the origin CPU) and its span — except a wire get's, whose true return
// time comes with the reply (GetDone).
func (r *Recorder) RMA(e RMA) {
	if r == nil {
		return
	}
	k := &rmaKinds[e.Kind]
	r.m.Add(e.Origin, k.metric, 1)
	switch {
	case e.Kind >= RMAFetchOp:
	case e.Shm:
		r.m.Add(e.Origin, CBytesShm, int64(e.Bytes))
		r.m.Add(e.Origin, CShmCopies, 1)
	case e.Packed:
		r.m.Add(e.Origin, CBytesPacked, int64(e.Bytes))
	default:
		r.m.Add(e.Origin, CBytesContig, int64(e.Bytes))
	}
	if e.Shm {
		src, dst := e.Origin, e.Target
		if e.Kind == RMAGet {
			src, dst = dst, src
		}
		r.prof.Send(src, dst, k.class, profile.RouteShm, e.Bytes)
		r.prof.Recv(src, dst, k.class, profile.RouteShm, e.Bytes)
	}
	if r.tr == nil || e.Kind == RMAGet && !e.Shm {
		return
	}
	route := ""
	if e.Shm {
		route = ".shm"
	}
	name := k.span + route
	switch e.Kind {
	case RMAAcc:
		name += "(" + e.Red.String() + ")"
	case RMAFetchOp:
		name = k.span + "(" + e.Red.String() + ")" + route
	}
	args := []arg{{"target", e.Target}, {"bytes", e.Bytes}}
	if e.Kind >= RMAFetchOp {
		args = args[:1]
	}
	r.tr.span(r.pid, e.Origin, "rma", name, e.T0, e.Done, args)
	if e.Kind == RMAAcc && !e.Shm {
		r.tr.span(r.pid, e.AgentLane, "agent", "apply("+e.Red.String()+")", e.AgentAt, e.Done,
			[]arg{{"origin", e.Origin}, {"bytes", e.Bytes}})
	}
}

// GetDone records a wire get's return, known once its request has
// reached the target: the reply arrives at arrive and — unpacked into a
// noncontiguous layout — is usable at back, ending the span begun at t0.
func (r *Recorder) GetDone(origin, target, bytes int, t0, arrive, back sim.Time) {
	if r == nil {
		return
	}
	if back > arrive {
		r.prof.PhaseAt(origin, profile.PhasePack, arrive, back)
	}
	if r.tr != nil {
		r.tr.span(r.pid, origin, "rma", "get", t0, back, []arg{{"target", target}, {"bytes", bytes}})
	}
}

// --- allocation, routing, tallies --------------------------------------

// Alloc records a collective global-memory allocation: rank exposed
// bytes in allocation id between t0 and t1.
func (r *Recorder) Alloc(rank int, t0, t1 sim.Time, bytes, id int) {
	if r == nil {
		return
	}
	r.m.Add(rank, CGmrAlloc, 1)
	r.m.Add(rank, CGmrBytes, int64(bytes))
	if r.tr != nil {
		r.tr.span(r.pid, rank, "armci", "gmr.alloc", t0, t1, []arg{{"bytes", bytes}, {"id", id}})
	}
}

// Tier is the locality tier a route decision sent an operation to.
type Tier uint8

const (
	TierSelf   Tier = iota // load-store: both sides on the calling rank
	TierNode               // same-node shared window
	TierRMA                // wire RMA
	TierStaged             // wire RMA behind the node leader's staging buffer
)

var tiers = [...][2]string{
	TierSelf:   {CRouteSelf, CRouteSelfBytes},
	TierNode:   {CRouteNode, CRouteNodeBytes},
	TierRMA:    {CRouteRMA, CRouteRMABytes},
	TierStaged: {CRouteStaged, CRouteStagedBytes},
}

// Routed records one route decision: an operation moving bytes was sent
// to tier.
func (r *Recorder) Routed(rank int, tier Tier, bytes int) {
	if r == nil {
		return
	}
	r.m.Add(rank, tiers[tier][0], 1)
	r.m.Add(rank, tiers[tier][1], int64(bytes))
}

// Count adds n to one of rank's plain tallies — the events that are
// nothing but a count (CPlanExec, CPlanSegs, CNbIssued, CNbDone,
// CGmrFree, a lock-all accounting epoch's CEpochs).
func (r *Recorder) Count(rank int, tally string, n int) {
	if r == nil {
		return
	}
	r.m.Add(rank, tally, int64(n))
}

// --- wake edges ---------------------------------------------------------

// Ref names a recorded dependence edge — a message hop or a lock grant;
// zero is "none" (and all a disabled recorder ever returns).
type Ref = critpath.Ref

// MsgHop records a message leaving rank from at sent, on the wire from
// xfer, delivered at arr, over NICs nicS and nicD (-1: none), and
// returns the edge it carries to whoever its delivery wakes. Sent from
// inside a delivery handler (Enter), it is chained to that delivery.
func (r *Recorder) MsgHop(from int, sent, xfer, arr sim.Time, nicS, nicD int) Ref {
	if r == nil {
		return 0
	}
	return r.crit.MsgHop(from, sent, xfer, arr, nicS, nicD)
}

// WakeCause names edge as what is about to release rank's wait.
func (r *Recorder) WakeCause(rank int, edge Ref) {
	if r == nil {
		return
	}
	r.crit.WakeCause(rank, edge)
}

// WakeGrant records that rank's lock or mutex wait ends because rank by
// released the resource at sent.
func (r *Recorder) WakeGrant(rank, by int, sent sim.Time) {
	if r == nil {
		return
	}
	r.crit.WakeGrant(rank, by, sent)
}

// WakeAmbient names the delivery whose handler is running as what
// releases rank's wait.
func (r *Recorder) WakeAmbient(rank int) {
	if r == nil {
		return
	}
	r.crit.WakeAmbient(rank)
}

// Enter marks the start of rank's delivery handler for the message
// carrying edge: until the matching Leave, what the handler sends or
// wakes is chained to that delivery. It returns what to hand to Leave.
func (r *Recorder) Enter(rank int, edge Ref) (prev Ref) {
	if r == nil {
		return 0
	}
	return r.crit.SetAmbient(rank, edge)
}

// Leave ends the handler Enter opened.
func (r *Recorder) Leave(rank int, prev Ref) {
	if r == nil {
		return
	}
	r.crit.SetAmbient(rank, prev)
}
