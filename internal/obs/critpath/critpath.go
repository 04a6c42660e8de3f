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
//     send→queue→wire→delivery records (Deliver and DeliverSharded),
//     destination NIC arbitration extensions, and lock/mutex grant
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
// allocate nothing. Multi-shard parallel runs give each shard a
// private Rec (obs.Sharded wires this); Merge stitches the per-shard
// logs back into one exact view, with hop references resolving across
// shards through the shard id packed into every reference.
package critpath

import (
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Clock supplies the current virtual time; obs.Recorder's job clocks
// satisfy it.
type Clock interface {
	Now() sim.Time
}

// Ref identifies a recorded dependence edge: shard id in the high
// bits, 1-based hop index in the low 40. Zero means "no edge".
type Ref uint64

const refIdxBits = 40

func (r *Rec) pack(idx int) Ref {
	return Ref(r.shard)<<refIdxBits | Ref(idx+1)
}

// Edge kinds in the hop table.
const (
	hopMsg   uint8 = iota // fabric message: sent → queue end → delivery
	hopArb                // destination NIC arbitration delay (sharded)
	hopGrant              // lock/mutex queue grant by a releasing rank
)

// hop is one dependence edge.
type hop struct {
	kind uint8
	from int      // sending rank (msg/arb) or releasing rank (grant)
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

// act is one activity interval: a raw profiler phase attribution after
// the per-rank cursor clamp.
type act struct {
	start, end sim.Time
	op         uint8 // profile.Op, or opNone
	ph         uint8 // profile.Phase
}

// span is one completed operation scope on a rank. Scopes are
// sequential per rank, so each log is sorted and non-overlapping; the
// walk uses it to label time no phase attribution covered with the
// operation that contained it.
type span struct {
	start, end sim.Time
	op         uint8
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

// Rec records one shard's dependence edges and per-rank logs. The
// cooperative scheduler (on the owning shard's worker)
// guarantees single-threaded access.
type Rec struct {
	shard int
	clock Clock
	label string
	open  bool // a job is being recorded

	waits  [][]wait
	acts   [][]act
	scopes [][]span
	cursor []sim.Time // per-rank activity clamp
	cause  []Ref      // pending wake cause, consumed by Resumed
	fins   []sim.Time // per-rank finish time, -1 until finished
	hops   []hop

	ambient Ref // provenance of the running delivery handler, if any

	// partial marks a per-shard sub-recorder: its logs cover only its
	// own ranks, so BeginJob never analyzes locally — Merge builds the
	// global view instead.
	partial bool

	flat *profile.Profiler // flat-attribution source for the report
	agg  agg               // closed-job aggregate
}

// New creates a recorder for a single-shard (sequential or solo
// parallel) run. flat, when non-nil, supplies the flat profiler
// aggregation the report contrasts critical shares against.
func New(flat *profile.Profiler) *Rec {
	return &Rec{flat: flat, agg: newAgg()}
}

// NewShard creates shard's private sub-recorder for a multi-shard
// parallel run. Its logs are partial (its own ranks only); Merge
// combines the shards into an analyzable whole.
func NewShard(shard int, flat *profile.Profiler) *Rec {
	r := New(flat)
	r.shard = shard
	r.partial = true
	return r
}

// BeginJob opens a new job: any previously recorded job is analyzed
// into the aggregate first (on partial shard recorders the analysis is
// deferred to Merge), then the per-job logs reset. label names the job
// in the per-job invariant table.
func (r *Rec) BeginJob(label string, clock Clock) {
	if r == nil {
		return
	}
	r.Flush()
	r.clock = clock
	r.label = label
	r.open = true
}

// Flush analyzes the currently recorded job, if any, folding its
// critical path into the aggregate and resetting the per-job logs.
// The report writers call it implicitly.
func (r *Rec) Flush() {
	if r == nil || !r.open {
		return
	}
	r.open = false
	if !r.partial {
		v := view{
			label:  r.label,
			waits:  r.waits,
			acts:   r.acts,
			scopes: r.scopes,
			fins:   r.fins,
			tabs:   [][]hop{r.hops},
		}
		analyze(v, &r.agg)
	}
	r.reset()
}

// reset clears the per-job logs, keeping backing arrays for reuse.
func (r *Rec) reset() {
	for i := range r.waits {
		r.waits[i] = r.waits[i][:0]
	}
	for i := range r.acts {
		r.acts[i] = r.acts[i][:0]
	}
	for i := range r.scopes {
		r.scopes[i] = r.scopes[i][:0]
	}
	for i := range r.cursor {
		r.cursor[i] = 0
	}
	for i := range r.cause {
		r.cause[i] = 0
	}
	for i := range r.fins {
		r.fins[i] = -1
	}
	r.hops = r.hops[:0]
	r.ambient = 0
}

// growRank materializes per-rank state up to rank (appended records
// are zeroed even when the backing arrays are reused), so idle ranks
// of a large job cost nothing.
func (r *Rec) growRank(rank int) {
	for len(r.waits) <= rank {
		r.waits = append(r.waits, nil)
		r.acts = append(r.acts, nil)
		r.scopes = append(r.scopes, nil)
		r.cursor = append(r.cursor, 0)
		r.cause = append(r.cause, 0)
		r.fins = append(r.fins, -1)
	}
}

// --- scheduler hooks (forwarded by obs.Recorder) ---------------------

// Parked records the start of a wait on rank. Any stale pending cause
// is cleared: causes name the edge that ends this wait, not an
// earlier one.
func (r *Rec) Parked(rank int, why string, at sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	r.growRank(rank)
	r.cause[rank] = 0
	r.waits[rank] = append(r.waits[rank], wait{start: at, end: -1, why: why})
}

// Resumed closes rank's open wait, attaching the pending wake cause
// (if a dependence hook named one).
func (r *Rec) Resumed(rank int, at sim.Time) {
	if r == nil || rank < 0 || rank >= len(r.waits) {
		return
	}
	ws := r.waits[rank]
	if n := len(ws); n > 0 && ws[n-1].end < 0 {
		ws[n-1].end = at
		ws[n-1].cause = r.cause[rank]
	}
	r.cause[rank] = 0
}

// Finished records rank's completion time (sim.FinishObserver via
// obs.Recorder). The job makespan is the maximum over ranks.
func (r *Rec) Finished(rank int, at sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	r.growRank(rank)
	if at > r.fins[rank] {
		r.fins[rank] = at
	}
}

// --- dependence edges ------------------------------------------------

// MsgHop records a fabric message edge: injected at sent by from,
// started serializing at xfer (the wire-queue end), delivered at arr.
// prev chains the provenance of a message sent from inside a delivery
// handler. Returns the reference the message carries to its
// destination.
func (r *Rec) MsgHop(from int, sent, xfer, arr sim.Time, nicS, nicD int, prev Ref) Ref {
	if r == nil {
		return 0
	}
	r.hops = append(r.hops, hop{kind: hopMsg, from: from,
		sent: sent, xfer: xfer, arr: arr, nicS: nicS, nicD: nicD, prev: prev})
	return r.pack(len(r.hops) - 1)
}

// ArbHop extends a message edge with a destination-NIC arbitration
// delay (the sharded delivery path re-queues behind the destination
// link): the message was due at sent but landed at arr.
func (r *Rec) ArbHop(from int, sent, arr sim.Time, nicD int, prev Ref) Ref {
	if r == nil {
		return 0
	}
	r.hops = append(r.hops, hop{kind: hopArb, from: from,
		sent: sent, xfer: sent, arr: arr, nicS: nicD, nicD: nicD, prev: prev})
	return r.pack(len(r.hops) - 1)
}

// WakeCause names the edge that is about to release rank's open wait.
// The first cause wins: a rank woken by one arrival stays attributed
// to it even if later deliveries pile on before it runs.
func (r *Rec) WakeCause(rank int, cause Ref) {
	if r == nil || rank < 0 || cause == 0 {
		return
	}
	r.growRank(rank)
	if r.cause[rank] == 0 {
		r.cause[rank] = cause
	}
}

// WakeGrant records a lock/mutex grant edge — rank's wait ends because
// releasing rank by released the resource at sent — and names it as
// the pending wake cause. by < 0 (an uncontended direct grant) records
// a local edge the walk treats as rank-local wait.
func (r *Rec) WakeGrant(rank, by int, sent sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	r.growRank(rank)
	if r.cause[rank] != 0 {
		return
	}
	r.hops = append(r.hops, hop{kind: hopGrant, from: by, sent: sent})
	r.cause[rank] = r.pack(len(r.hops) - 1)
}

// WakeAmbient names the running delivery handler's provenance as
// rank's wake cause (a handler that explicitly unparks a waiter, e.g.
// the rendezvous sender released by the clear-to-send arrival).
func (r *Rec) WakeAmbient(rank int) {
	if r == nil {
		return
	}
	r.WakeCause(rank, r.ambient)
}

// Ambient returns the provenance of the running delivery handler.
func (r *Rec) Ambient() Ref {
	if r == nil {
		return 0
	}
	return r.ambient
}

// SetAmbient installs the provenance of a delivery handler about to
// run, returning the previous value for restoration.
func (r *Rec) SetAmbient(ref Ref) (prev Ref) {
	if r == nil {
		return 0
	}
	prev = r.ambient
	r.ambient = ref
	return prev
}

// --- profiler sink ---------------------------------------------------

// RawPhase implements profile.Sink: every raw phase attribution, with
// the open operation (or profile.NumOps when none), before the
// profiler's scope and cursor gating. The per-rank cursor clamp keeps
// the activity log sorted and non-overlapping.
func (r *Rec) RawPhase(rank int, op profile.Op, ph profile.Phase, start, end sim.Time) {
	if r == nil || rank < 0 || !r.open {
		return
	}
	r.growRank(rank)
	if start < r.cursor[rank] {
		start = r.cursor[rank]
	}
	if end <= start {
		return
	}
	r.cursor[rank] = end
	r.acts[rank] = append(r.acts[rank], act{start: start, end: end, op: uint8(op), ph: uint8(ph)})
}

// RawScope implements the scope half of profile.Sink: one completed
// operation scope on rank. Scopes close in increasing end order and
// never overlap, so the log stays sorted without clamping.
func (r *Rec) RawScope(rank int, op profile.Op, start, end sim.Time) {
	if r == nil || rank < 0 || !r.open || end <= start {
		return
	}
	r.growRank(rank)
	r.scopes[rank] = append(r.scopes[rank], span{start: start, end: end, op: uint8(op)})
}

// --- shard merge -----------------------------------------------------

// Merge stitches the per-shard sub-recorders of a parallel run into
// one analyzable recorder, in shard id order. Each rank lives on
// exactly one shard, so the per-rank logs are disjoint and their union
// is exact; hop references resolve across shards through the shard id
// packed into every Ref. The current (un-analyzed) job of the shards
// is analyzed here as one global job; flat supplies the merged
// profiler for the report. Call it only after the run has completed.
func Merge(shards []*Rec, flat *profile.Profiler) *Rec {
	out := New(flat)
	if len(shards) == 0 || shards[0] == nil {
		return out
	}
	v := view{label: shards[0].label, tabs: make([][]hop, len(shards))}
	for i, s := range shards {
		v.tabs[i] = s.hops
		for rank := range s.waits {
			for len(v.waits) <= rank {
				v.waits = append(v.waits, nil)
				v.acts = append(v.acts, nil)
				v.scopes = append(v.scopes, nil)
				v.fins = append(v.fins, -1)
			}
			if len(s.waits[rank]) > 0 {
				v.waits[rank] = s.waits[rank]
			}
			if len(s.acts[rank]) > 0 {
				v.acts[rank] = s.acts[rank]
			}
			if len(s.scopes[rank]) > 0 {
				v.scopes[rank] = s.scopes[rank]
			}
			if s.fins[rank] > v.fins[rank] {
				v.fins[rank] = s.fins[rank]
			}
		}
		// Closed-job aggregates of the shards (normally empty: sharded
		// fronts record one job per run) carry over additively.
		out.agg.merge(&s.agg)
		s.open = false
	}
	analyze(v, &out.agg)
	return out
}

// Jobs returns the per-job invariant records analyzed so far,
// flushing the current job first.
func (r *Rec) Jobs() []Job {
	if r == nil {
		return nil
	}
	r.Flush()
	return r.agg.jobs
}
