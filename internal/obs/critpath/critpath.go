// Package critpath is the critical-path and wait-chain analyzer: a
// happens-before recorder over the simulator's deterministic virtual
// time plus an exact longest-path engine that attributes every
// nanosecond of a job's makespan to the dependence chain that actually
// bounds it.
//
// The recorder collects three per-job logs, all in virtual time:
//
//   - per-rank wait intervals (from the scheduler's park/resume
//     observer), each carrying the dependence edge that released it —
//     the delivered fabric message or the lock-queue grant;
//   - per-rank activity intervals: the profiler's raw phase
//     attributions (forwarded through profile.Sink before the scope
//     and cursor gating), clamped to a per-rank monotone cursor so
//     they form a sorted, non-overlapping cover of on-CPU time;
//   - a hop table of dependence edges: fabric message
//     send→queue→wire→delivery records (Deliver) and lock/mutex grant
//     edges, chained through an ambient provenance reference when a
//     message is sent from inside another message's delivery handler
//     (rendezvous, data-server service, leader staging).
//
// When a job closes, analyze walks backward from the last rank to
// finish: activity before a wait is attributed via the activity log,
// each wait jumps through its releasing edge — unwinding chained hops
// into wire.queue / wire.xfer segments on the sending rank — and the
// walk continues on the rank at the other end of the edge. Every step
// emits segments that exactly tile the frontier interval it consumes,
// so the segment durations telescope: their sum equals the job
// makespan by construction, the invariant the tests pin.
//
// Like the rest of internal/obs, every recording method is nil-safe (a
// nil *Rec no-ops at the cost of one branch) and warmed record paths
// allocate nothing.
package critpath

import (
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Ref identifies a recorded dependence edge: its 1-based index in the
// hop table. Zero means "no edge".
type Ref uint64

// addHop appends h to the hop table and returns its reference.
func (r *Rec) addHop(h hop) Ref {
	r.hops = append(r.hops, h)
	return Ref(len(r.hops))
}

// Edge kinds in the hop table.
const (
	hopMsg   uint8 = iota // fabric message: sent → queue end → delivery
	hopGrant              // lock/mutex queue grant by a releasing rank
)

// hop is one dependence edge.
type hop struct {
	kind uint8
	from int      // sending rank (msg) or releasing rank (grant)
	sent sim.Time // injection time at the origin / release time
	xfer sim.Time // msg: wire-serialization start (queue end)
	arr  sim.Time // delivery time at the destination
	nicS int      // origin NIC node, -1 if none (same-node)
	nicD int      // destination NIC node, -1 if none
	prev Ref      // provenance: the edge whose handler sent this one
}

// wait is one recorded park interval on a rank. end < 0 while open.
type wait struct {
	start, end sim.Time
	why        string
	cause      Ref
}

// act is one interval of a rank's activity log — a raw profiler phase
// attribution after the per-rank cursor clamp — or of its scope log: a
// completed operation scope (ph unused). Scopes are sequential per
// rank, so both logs are sorted and non-overlapping; the walk uses the
// scope log to label time no phase attribution covered with the
// operation that contained it.
type act struct {
	start, end sim.Time
	op         uint8 // profile.Op, or opNone
	ph         uint8 // profile.Phase
}

// opNone labels segments with no open operation scope.
const opNone = uint8(profile.NumOps)

// Pseudo-phases appended after profile's phase space for segments the
// profiler did not cover.
const (
	// phLocal is on-CPU execution not attributed to any phase.
	phLocal = uint8(profile.NumPhases)
	// phBlocked is wait time not covered by any phase attribution.
	phBlocked = uint8(profile.NumPhases) + 1

	// numPhases is the extended phase count.
	numPhases = int(profile.NumPhases) + 2
)

// PhaseName names an extended phase (profile phases plus the local and
// blocked pseudo-phases).
func PhaseName(ph uint8) string {
	switch {
	case ph < uint8(profile.NumPhases):
		return profile.Phase(ph).String()
	case ph == phLocal:
		return "local"
	case ph == phBlocked:
		return "blocked"
	}
	return "?"
}

// OpName names an operation, with opNone rendered as "-".
func OpName(op uint8) string {
	if op == opNone {
		return "-"
	}
	return profile.Op(op).String()
}

// rankLog is one rank's logs of the job being recorded.
type rankLog struct {
	waits  []wait
	acts   []act
	scopes []act
	cursor sim.Time // activity clamp
	cause  Ref      // pending wake cause, consumed by Resumed
	fin    sim.Time // finish time, -1 until finished
}

// Rec records one job at a time; the cooperative scheduler guarantees
// single-threaded access.
type Rec struct {
	label string
	open  bool // a job is being recorded

	ranks   []rankLog // sized by BeginJob
	hops    []hop     // dependence edges; Ref n is hops[n-1]
	ambient Ref       // provenance of the running delivery handler, if any

	flat *profile.Profiler // flat-attribution source for the report
	agg  agg               // closed-job aggregate
}

// New creates a recorder. flat, when non-nil, supplies the flat
// profiler aggregation the report contrasts critical shares against.
func New(flat *profile.Profiler) *Rec {
	return &Rec{flat: flat, agg: newAgg()}
}

// BeginJob opens a new job of nranks ranks: any previously recorded job
// is analyzed into the aggregate first, then the per-job logs reset,
// keeping backing arrays for reuse. label names the job in the per-job
// invariant table.
func (r *Rec) BeginJob(label string, nranks int) {
	if r == nil {
		return
	}
	r.Flush()
	r.label, r.open = label, true
	for len(r.ranks) < nranks {
		r.ranks = append(r.ranks, rankLog{})
	}
	for i := range r.ranks {
		l := &r.ranks[i]
		*l = rankLog{waits: l.waits[:0], acts: l.acts[:0], scopes: l.scopes[:0], fin: -1}
	}
	r.hops, r.ambient = r.hops[:0], 0
}

// Flush analyzes the currently recorded job, if any, folding its
// critical path into the aggregate. The report writers call it
// implicitly.
func (r *Rec) Flush() {
	if r == nil || !r.open {
		return
	}
	r.open = false
	analyze(view{label: r.label, ranks: r.ranks, hops: r.hops}, &r.agg)
}

// log returns rank's logs, or nil for a rank outside the open job.
func (r *Rec) log(rank int) *rankLog {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return nil
	}
	return &r.ranks[rank]
}

// --- scheduler hooks (forwarded by obs.Recorder) ---------------------

// Parked records the start of a wait on rank. Any stale pending cause
// is cleared: causes name the edge that ends this wait, not an
// earlier one.
func (r *Rec) Parked(rank int, why string, at sim.Time) {
	if l := r.log(rank); l != nil {
		l.cause = 0
		l.waits = append(l.waits, wait{start: at, end: -1, why: why})
	}
}

// Resumed closes rank's open wait, attaching the pending wake cause
// (if a dependence hook named one).
func (r *Rec) Resumed(rank int, at sim.Time) {
	l := r.log(rank)
	if l == nil {
		return
	}
	if n := len(l.waits); n > 0 && l.waits[n-1].end < 0 {
		l.waits[n-1].end = at
		l.waits[n-1].cause = l.cause
	}
	l.cause = 0
}

// Finished records rank's completion time (sim.FinishObserver via
// obs.Recorder). The job makespan is the maximum over ranks.
func (r *Rec) Finished(rank int, at sim.Time) {
	if l := r.log(rank); l != nil && at > l.fin {
		l.fin = at
	}
}

// --- dependence edges ------------------------------------------------

// MsgHop records a fabric message edge: injected at sent by from,
// started serializing at xfer (the wire-queue end), delivered at arr.
// A message sent from inside a delivery handler (SetAmbient) is chained
// to the delivery that ran the handler. Returns the reference the
// message carries to its destination.
func (r *Rec) MsgHop(from int, sent, xfer, arr sim.Time, nicS, nicD int) Ref {
	if r.log(from) == nil {
		return 0
	}
	return r.addHop(hop{kind: hopMsg, from: from,
		sent: sent, xfer: xfer, arr: arr, nicS: nicS, nicD: nicD, prev: r.ambient})
}

// WakeCause names the edge that is about to release rank's open wait.
// The first cause wins: a rank woken by one arrival stays attributed
// to it even if later deliveries pile on before it runs.
func (r *Rec) WakeCause(rank int, cause Ref) {
	if l := r.log(rank); l != nil && l.cause == 0 {
		l.cause = cause
	}
}

// WakeGrant records a lock/mutex grant edge — rank's wait ends because
// releasing rank by released the resource at sent — and names it as
// the pending wake cause. by < 0 (an uncontended direct grant) records
// a local edge the walk treats as rank-local wait.
func (r *Rec) WakeGrant(rank, by int, sent sim.Time) {
	if l := r.log(rank); l != nil && l.cause == 0 {
		l.cause = r.addHop(hop{kind: hopGrant, from: by, sent: sent})
	}
}

// WakeAmbient names the provenance of the running delivery handler as
// rank's wake cause (a handler that explicitly unparks a waiter, e.g.
// the rendezvous sender released by the clear-to-send arrival).
func (r *Rec) WakeAmbient(rank int) {
	if r.log(rank) != nil {
		r.WakeCause(rank, r.ambient)
	}
}

// SetAmbient installs the provenance of a delivery handler about to
// run on rank, returning the previous value for restoration.
func (r *Rec) SetAmbient(rank int, ref Ref) (prev Ref) {
	if r.log(rank) == nil {
		return 0
	}
	prev, r.ambient = r.ambient, ref
	return prev
}

// --- profiler sink ---------------------------------------------------

// RawPhase implements profile.Sink: every raw phase attribution, with
// the open operation (or profile.NumOps when none), before the
// profiler's scope and cursor gating. The per-rank cursor clamp keeps
// the activity log sorted and non-overlapping.
func (r *Rec) RawPhase(rank int, op profile.Op, ph profile.Phase, start, end sim.Time) {
	l := r.log(rank)
	if l == nil || !r.open {
		return
	}
	start = max(start, l.cursor)
	if end <= start {
		return
	}
	l.cursor = end
	l.acts = append(l.acts, act{start: start, end: end, op: uint8(op), ph: uint8(ph)})
}

// RawScope implements the scope half of profile.Sink: one completed
// operation scope on rank. Scopes close in increasing end order and
// never overlap, so the log stays sorted without clamping.
func (r *Rec) RawScope(rank int, op profile.Op, start, end sim.Time) {
	if l := r.log(rank); l != nil && r.open && end > start {
		l.scopes = append(l.scopes, act{start: start, end: end, op: uint8(op)})
	}
}
