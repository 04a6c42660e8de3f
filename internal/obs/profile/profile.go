// Package profile is the phase-attribution profiler: it decomposes
// every ARMCI operation into virtual-time phases (lock/epoch wait,
// datatype pack, shared-memory copy, wire queueing and transfer,
// target-side queueing and processing) and aggregates them into
// log-bucketed histograms per (operation x phase x rank), a rank x rank
// communication matrix split by message class and route, and per-link
// utilization statistics.
//
// Attribution is critical-path style: each rank carries one open
// operation scope with a monotonic cursor; an interval [start, end) is
// credited only for the part past the cursor, so overlapping phases
// (e.g. a pack that proceeds while an earlier segment is on the wire)
// are never double-counted. At scope end the residual between the
// operation's measured latency and the attributed phases is credited to
// the "other" phase, so phase times always sum exactly to the
// operation's total — the invariant the report and its tests rely on.
// Nonblocking operations whose wire intervals extend past their issue
// return are clamped the other way: their total is the phase sum.
//
// Like the rest of internal/obs, recording runs in deterministic
// virtual time, every method is nil-safe (a nil *Profiler no-ops), and
// warmed record paths allocate nothing.
package profile

import (
	"maps"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Clock supplies the current virtual time; *sim.Engine satisfies it.
// It is the one clock interface of internal/obs.
type Clock interface {
	Now() sim.Time
}

// Phase is one attributed slice of an operation's latency.
type Phase uint8

const (
	// PhaseLockWait is time from a lock/mutex request to its grant.
	PhaseLockWait Phase = iota
	// PhaseEpochWait is time spent in Unlock/Flush/FlushAll waiting for
	// remote completion of the epoch's operations.
	PhaseEpochWait
	// PhasePack is origin- or target-side datatype pack/unpack time.
	PhasePack
	// PhaseShmCopy is intra-node shared-segment copy time.
	PhaseShmCopy
	// PhaseWireQueue is time a message waited for a busy NIC link.
	PhaseWireQueue
	// PhaseWire is serialization plus propagation on the fabric.
	PhaseWire
	// PhaseTargetQueue is queueing behind the target-side agent
	// (accumulate engine, AMO unit, or data server).
	PhaseTargetQueue
	// PhaseTargetProc is target-side processing (reduction application,
	// atomic execution, data-server service).
	PhaseTargetProc
	// PhaseLeaderQueue is time a hierarchically staged transfer waited
	// for its node leader's staging pipe (dartmpi).
	PhaseLeaderQueue
	// PhaseLeaderCopy is the shared-memory copy into the node leader's
	// staging buffer ahead of the wire transfer (dartmpi).
	PhaseLeaderCopy
	// PhaseOther is the residual: software overheads, control-message
	// round trips, and progress delays not claimed by another phase.
	PhaseOther

	// NumPhases is the phase count; keep it last.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"lock.wait", "epoch.wait", "dt.pack", "shm.copy",
	"wire.queue", "wire.xfer", "target.queue", "target.proc",
	"leader.queue", "leader.copy", "other",
}

func (ph Phase) String() string { return nameOf(phaseNames[:], int(ph)) }

// nameOf is names[i], or "?" for a value past the enum.
func nameOf(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return "?"
}

// Op classifies the ARMCI surface operation being attributed.
type Op uint8

const (
	OpPut Op = iota
	OpGet
	OpAcc
	OpPutS
	OpGetS
	OpAccS
	OpPutV
	OpGetV
	OpAccV
	OpRmw
	OpNbPut
	OpNbGet
	OpNbAcc
	OpNbPutS
	OpNbGetS
	OpNbAccS
	OpNbPutV
	OpNbGetV
	OpNbAccV

	// NumOps is the operation count; keep it last.
	NumOps
)

var opNames = [NumOps]string{
	"put", "get", "acc", "puts", "gets", "accs", "putv", "getv", "accv",
	"rmw", "nbput", "nbget", "nbacc", "nbputs", "nbgets", "nbaccs",
	"nbputv", "nbgetv", "nbaccv",
}

func (op Op) String() string { return nameOf(opNames[:], int(op)) }

// MsgClass classifies a communication-matrix entry's payload.
type MsgClass uint8

const (
	MsgPut MsgClass = iota
	MsgGet
	MsgAcc
	MsgAmo

	// NumMsgClasses is the class count; keep it last.
	NumMsgClasses
)

var msgClassNames = [NumMsgClasses]string{"put", "get", "acc", "amo"}

func (c MsgClass) String() string { return nameOf(msgClassNames[:], int(c)) }

// Route classifies how the payload moved.
type Route uint8

const (
	// RouteRMA is the one-sided fabric path (MPI RMA over the NIC).
	RouteRMA Route = iota
	// RouteShm is the intra-node shared-memory path.
	RouteShm
	// RouteDS is the two-sided data-server path.
	RouteDS

	// NumRoutes is the route count; keep it last.
	NumRoutes
)

var routeNames = [NumRoutes]string{"rma", "shm", "ds"}

func (r Route) String() string { return nameOf(routeNames[:], int(r)) }

// histBuckets is the bucket count of the log2 histograms: bucket b
// holds durations in [2^(b-1), 2^b) ns, bucket 0 holds zero.
const histBuckets = 48

// Hist is one log2 virtual-time histogram, the one histogram type of
// internal/obs (the metrics registry's latency histograms are Hists
// too).
type Hist struct {
	Count   int64
	SumNs   int64
	Buckets [histBuckets]int64
}

// Observe records one duration (negative durations count as zero).
func (h *Hist) Observe(d sim.Time) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Count++
	h.SumNs += int64(d)
	h.Buckets[b]++
}

// Add folds o's samples into h.
func (h *Hist) Add(o *Hist) {
	h.Count += o.Count
	h.SumNs += o.SumNs
	for b, c := range o.Buckets {
		h.Buckets[b] += c
	}
}

// Sparse lists the nonzero buckets as [bucket, count] pairs, the form
// every JSON report uses; nil when the histogram is empty.
func (h *Hist) Sparse() [][2]int64 {
	var out [][2]int64
	for b, c := range h.Buckets {
		if c != 0 {
			out = append(out, [2]int64{int64(b), c})
		}
	}
	return out
}

// scope is one rank's open operation. Nested Begin calls (a public op
// re-entered through the per-segment execution path, or a nonblocking
// delegate falling through to its blocking twin) fold into the outer
// scope via depth counting.
type scope struct {
	open   bool
	depth  int32
	op     Op
	begin  sim.Time
	cursor sim.Time
	phases [NumPhases]sim.Time
}

// Cell is one communication-matrix entry: traffic from Src to Dst of
// one message class over one route, tallied independently at the send
// site (origin issue) and the receive site (target-side apply), so the
// two sides cross-check each other.
type Cell struct {
	Src       int      `json:"src"`
	Dst       int      `json:"dst"`
	Class     MsgClass `json:"class"`
	Route     Route    `json:"route"`
	SentMsgs  int64    `json:"sent_msgs"`
	SentBytes int64    `json:"sent_bytes"`
	RecvMsgs  int64    `json:"recv_msgs"`
	RecvBytes int64    `json:"recv_bytes"`
}

// LinkStat is one node's NIC utilization record.
type LinkStat struct {
	Msgs       int64
	Bytes      int64
	Busy       sim.Time // serialization occupancy
	Queued     sim.Time // time messages waited for the link
	MaxBacklog sim.Time // deepest queue horizon seen (freeAt - now)
}

// Sink receives every raw phase attribution before the profiler's own
// scope and cursor gating: the interval exactly as the hook reported
// it, with the rank's open operation (or NumOps when no scope is
// open). It also receives each operation scope as it closes, so the
// consumer can attribute otherwise-uncovered time to the operation
// that contained it. The critical-path recorder consumes this stream —
// its activity log needs the event-context attributions (epoch waits,
// target-side service) that the profiler's sealed-scope rule drops.
type Sink interface {
	RawPhase(rank int, op Op, ph Phase, start, end sim.Time)
	RawScope(rank int, op Op, start, end sim.Time)
}

// Profiler aggregates phase attributions across one or more simulated
// jobs. The cooperative scheduler guarantees single-threaded access.
type Profiler struct {
	clock  Clock
	scopes []scope
	sink   Sink

	hists  [NumOps][NumPhases][]Hist // per-rank phase histograms
	totals [NumOps][]Hist            // per-rank whole-op histograms

	matrix map[uint64]*Cell
	links  []LinkStat
}

// New creates an empty profiler. The clock is bound per job by
// BeginJob; until then, recording calls are dropped.
func New() *Profiler {
	return &Profiler{matrix: map[uint64]*Cell{}}
}

// BeginJob binds the profiler to a new job's clock. Statistics
// accumulate across jobs; open scopes are discarded (each job's
// virtual clock restarts at zero). Per-rank scope records are
// materialized lazily on first use: idle ranks of a large job cost
// nothing.
func (p *Profiler) BeginJob(clock Clock) {
	if p == nil {
		return
	}
	p.clock = clock
	p.scopes = p.scopes[:0]
}

// scopeAt returns rank's scope record, growing the vector on demand
// (appended records are zeroed even when the backing array is reused).
func (p *Profiler) scopeAt(rank int) *scope {
	for len(p.scopes) <= rank {
		p.scopes = append(p.scopes, scope{})
	}
	return &p.scopes[rank]
}

// Begin opens (or nests into) rank's operation scope.
func (p *Profiler) Begin(rank int, op Op) {
	if p == nil || rank < 0 || p.clock == nil {
		return
	}
	sc := p.scopeAt(rank)
	if sc.open {
		sc.depth++
		return
	}
	now := p.clock.Now()
	*sc = scope{open: true, op: op, begin: now, cursor: now}
}

// End closes rank's operation scope (or unwinds one nesting level) and
// commits the attribution. The residual between the measured latency
// and the attributed phases goes to PhaseOther; a negative residual
// (nonblocking issue whose wire intervals extend past the return)
// clamps the total to the phase sum, so phase times always sum exactly
// to the recorded total.
func (p *Profiler) End(rank int) {
	if p == nil || rank < 0 || rank >= len(p.scopes) {
		return
	}
	sc := &p.scopes[rank]
	if !sc.open {
		return
	}
	if sc.depth > 0 {
		sc.depth--
		return
	}
	sc.open = false
	now := p.clock.Now()
	if p.sink != nil {
		p.sink.RawScope(rank, sc.op, sc.begin, now)
	}
	total := now - sc.begin
	var sum sim.Time
	for ph := Phase(0); ph < NumPhases; ph++ {
		sum += sc.phases[ph]
	}
	if residual := total - sum; residual >= 0 {
		sc.phases[PhaseOther] += residual
	} else {
		total = sum
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if t := sc.phases[ph]; t > 0 {
			histOf(&p.hists[sc.op][ph], rank).Observe(t)
		}
	}
	histOf(&p.totals[sc.op], rank).Observe(total)
}

// PhaseAt attributes [start, end) of rank's open operation to phase
// ph. Only the part past the scope's cursor is credited (earlier
// attributions own the overlap); with no open scope the interval is
// dropped — late event-context attributions against an already sealed
// nonblocking scope must not leak into the next operation. The raw
// interval is forwarded to the sink, if any, before either gate.
func (p *Profiler) PhaseAt(rank int, ph Phase, start, end sim.Time) {
	if p == nil || rank < 0 {
		return
	}
	var sc *scope
	if rank < len(p.scopes) {
		sc = &p.scopes[rank]
	}
	if p.sink != nil {
		op := NumOps
		if sc != nil && sc.open {
			op = sc.op
		}
		p.sink.RawPhase(rank, op, ph, start, end)
	}
	if sc == nil || !sc.open {
		return
	}
	if start < sc.cursor {
		start = sc.cursor
	}
	if end > sc.cursor {
		sc.cursor = end
	}
	if end > start {
		sc.phases[ph] += end - start
	}
}

// SetSink installs (or, with nil, removes) the raw-attribution sink.
func (p *Profiler) SetSink(s Sink) {
	if p == nil {
		return
	}
	p.sink = s
}

// histOf returns rank's histogram in *hs, growing the per-rank vector
// on demand.
func histOf(hs *[]Hist, rank int) *Hist {
	for len(*hs) <= rank {
		*hs = append(*hs, Hist{})
	}
	return &(*hs)[rank]
}

// --- communication matrix -------------------------------------------

// matrix keys pack (src, dst, class, route) into one integer; ranks
// stay well under 2^30.
func matKey(src, dst int, c MsgClass, r Route) uint64 {
	return uint64(src)<<34 | uint64(dst)<<4 | uint64(c)<<2 | uint64(r)
}

func (p *Profiler) cell(src, dst int, c MsgClass, r Route) *Cell {
	k := matKey(src, dst, c, r)
	cl := p.matrix[k]
	if cl == nil {
		cl = &Cell{Src: src, Dst: dst, Class: c, Route: r}
		p.matrix[k] = cl
	}
	return cl
}

// Send records bytes leaving src for dst, tallied at the origin's
// issue site.
func (p *Profiler) Send(src, dst int, c MsgClass, r Route, bytes int) {
	if p == nil || src < 0 || dst < 0 {
		return
	}
	cl := p.cell(src, dst, c, r)
	cl.SentMsgs++
	cl.SentBytes += int64(bytes)
}

// Recv records bytes landing at dst from src, tallied at the
// target-side apply/arrival site.
func (p *Profiler) Recv(src, dst int, c MsgClass, r Route, bytes int) {
	if p == nil || src < 0 || dst < 0 {
		return
	}
	cl := p.cell(src, dst, c, r)
	cl.RecvMsgs++
	cl.RecvBytes += int64(bytes)
}

// Cells returns the communication matrix sorted by (src, dst, class,
// route).
func (p *Profiler) Cells() []Cell {
	if p == nil {
		return nil
	}
	out := make([]Cell, 0, len(p.matrix))
	for _, k := range slices.Sorted(maps.Keys(p.matrix)) {
		out = append(out, *p.matrix[k])
	}
	return out
}

// --- link telemetry --------------------------------------------------

// Link records one message's NIC accounting at a node: bytes moved,
// time queued behind the link, serialization occupancy, and the queue
// horizon depth after this message.
func (p *Profiler) Link(node int, bytes int, queued, busy, backlog sim.Time) {
	if p == nil || node < 0 {
		return
	}
	for len(p.links) <= node {
		p.links = append(p.links, LinkStat{})
	}
	ls := &p.links[node]
	ls.Msgs++
	ls.Bytes += int64(bytes)
	if queued > 0 {
		ls.Queued += queued
	}
	ls.Busy += busy
	if backlog > ls.MaxBacklog {
		ls.MaxBacklog = backlog
	}
}

// --- accessors for tests and reports --------------------------------

// TotalHists returns op's per-rank whole-operation histograms (nil if
// the op never completed).
func (p *Profiler) TotalHists(op Op) []Hist {
	if p == nil || op >= NumOps {
		return nil
	}
	return p.totals[op]
}

// PhaseHists returns op's per-rank histograms for one phase (nil if
// never attributed).
func (p *Profiler) PhaseHists(op Op, ph Phase) []Hist {
	if p == nil || op >= NumOps || ph >= NumPhases {
		return nil
	}
	return p.hists[op][ph]
}
