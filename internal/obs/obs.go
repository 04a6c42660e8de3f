// Package obs is the runtime observability subsystem: a per-rank
// metrics registry (counters, virtual-time accumulators, max gauges,
// and log2 latency histograms), an event tracer that records spans
// stamped with the simulator's virtual clock and exports Chrome
// trace_event JSON (viewable in chrome://tracing or Perfetto), the
// phase-attribution profiler (obs/profile) and the critical-path
// recorder (obs/critpath).
//
// The runtime layers never address an instrument. A hook site states
// what happened — one typed event on the Recorder (events.go) carrying
// ranks, enums, byte counts and virtual-time endpoints — and this
// package decides which instruments record it, under which counter
// name, span category and argument keys.
//
// Because the clock is the discrete-event engine's deterministic
// virtual time, every export is byte-identical across runs of the same
// configuration: traces and stats double as diffable regression
// artifacts.
//
// Every event is a nil-safe no-op, so instrumented hot paths in
// fabric/mpi/armci/armcimpi/dataserver cost a single nil check when
// observability is off. A Recorder may span several simulated jobs
// (e.g. one benchmark sweep): each BeginJob opens a new trace process
// (pid) whose virtual clock restarts at zero.
package obs

import (
	"repro/internal/obs/critpath"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Clock supplies the current virtual time; *sim.Engine satisfies it.
type Clock = profile.Clock

// Recorder collects what all four instruments record for one or more
// simulated jobs; the cooperative scheduler guarantees single-threaded
// access.
type Recorder struct {
	m    *Metrics
	tr   *Tracer
	prof *profile.Profiler
	crit *critpath.Rec
	pid  int // current job id (trace "process")

	// last is the transfer the fabric most recently timed (Xfer), kept
	// for the Wire event that claims it: emitted right after the fabric
	// call, under the cooperative scheduler it sees its own transfer.
	last Xfer

	// Park accounting (sim.Observer): start time and reason per rank.
	parkAt  []sim.Time
	parkWhy []string

	// parkNames interns the metric and span names derived from park
	// reasons ("sched.park:<why>" / "park:<why>"), so the hot
	// RankResumed path does not re-concatenate strings on every park.
	// Park reasons form a small fixed vocabulary, so the map stays tiny.
	parkNames map[string]parkName
}

type parkName struct{ metric, span string }

func (r *Recorder) parkName(why string) parkName {
	if n, ok := r.parkNames[why]; ok {
		return n
	}
	if r.parkNames == nil {
		r.parkNames = make(map[string]parkName)
	}
	n := parkName{metric: "sched.park:" + why, span: "park:" + why}
	r.parkNames[why] = n
	return n
}

// Options configures a Recorder.
type Options struct {
	// Trace enables span collection. Metrics are always collected.
	Trace bool
	// Profile enables the phase-attribution profiler.
	Profile bool
	// CritPath enables the critical-path recorder. It needs the
	// profiler's raw phase stream, so the profiler is created too
	// (its report stays opt-in via Profile).
	CritPath bool
}

// New creates an empty Recorder. The clock is bound per job by
// BeginJob; until then, time-stamped events are dropped.
func New(opt Options) *Recorder {
	r := &Recorder{m: NewMetrics()}
	if opt.Trace {
		r.tr = &Tracer{}
	}
	if opt.Profile || opt.CritPath {
		r.prof = profile.New()
	}
	if opt.CritPath {
		r.crit = critpath.New(r.prof)
		r.prof.SetSink(r.crit)
	}
	return r
}

// Prof returns the phase-attribution profiler for its report writers
// and read accessors; nil when profiling is off or the recorder is nil.
func (r *Recorder) Prof() *profile.Profiler {
	if r == nil {
		return nil
	}
	return r.prof
}

// Crit returns the critical-path recorder for its report writers; nil
// when critical-path analysis is off or the recorder is nil.
func (r *Recorder) Crit() *critpath.Rec {
	if r == nil {
		return nil
	}
	return r.crit
}

// BeginJob opens a new trace process for one simulated job: label
// names it (shown in the trace viewer), clock is the job engine's
// virtual clock, and nranks sizes the per-rank lanes. Metrics from
// successive jobs accumulate into the same registry.
func (r *Recorder) BeginJob(label string, clock Clock, nranks int) {
	if r == nil {
		return
	}
	r.pid++
	r.crit.BeginJob(label, nranks)
	// Park state is materialized lazily as ranks first park (appended
	// records are zeroed even when the backing arrays are reused), so
	// idle ranks of a large job cost nothing.
	r.parkAt = r.parkAt[:0]
	r.parkWhy = r.parkWhy[:0]
	if r.tr != nil {
		r.tr.meta(r.pid, label, nranks)
	}
	r.prof.BeginJob(clock)
}

// LaneServer returns the trace lane for node n's data server / target
// agent, kept clear of rank lanes.
func LaneServer(node int) int { return serverLaneBase + node }

// laneNIC returns the trace lane for node n's fabric link, kept clear
// of both rank and server lanes.
func laneNIC(node int) int { return nicLaneBase + node }

const (
	serverLaneBase = 1 << 16
	nicLaneBase    = 2 << 16
)

// --- sim.Observer -----------------------------------------------------

// RankParked implements sim.Observer: a rank blocked on a condition.
// Pure time passage ("elapse") is not a wait and is not recorded.
func (r *Recorder) RankParked(rank int, why string, at sim.Time) {
	if r == nil || why == "elapse" || rank < 0 {
		return
	}
	for len(r.parkAt) <= rank {
		r.parkAt = append(r.parkAt, 0)
		r.parkWhy = append(r.parkWhy, "")
	}
	r.parkAt[rank] = at
	r.parkWhy[rank] = why
	r.crit.Parked(rank, why, at)
}

// RankResumed implements sim.Observer: the parked rank was released.
func (r *Recorder) RankResumed(rank int, at sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	if rank >= len(r.parkAt) || r.parkWhy[rank] == "" {
		return
	}
	n := r.parkName(r.parkWhy[rank])
	r.parkWhy[rank] = ""
	r.m.AddTime(rank, n.metric, at-r.parkAt[rank])
	if r.tr != nil {
		r.tr.span(r.pid, rank, "sched", n.span, r.parkAt[rank], at, nil)
	}
	r.crit.Resumed(rank, at)
}

// RankFinished implements sim.FinishObserver: rank's body returned.
// The critical-path analyzer starts its walk from the last finisher.
func (r *Recorder) RankFinished(rank int, at sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	r.crit.Finished(rank, at)
}
