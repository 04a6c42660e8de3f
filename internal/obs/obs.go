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
// simulated jobs, in k >= 1 private buffers. One buffer (New) relies on
// the cooperative scheduler for single-threaded access. The workers of
// a multi-shard engine run concurrently within a time window, so
// NewSharded gives each engine shard its own buffer: every event names
// a rank, the recorder resolves it to the buffer of the shard that owns
// the rank, and no buffer — nor any log of the critical-path recorder,
// which partitions itself the same way — is shared between workers.
// Merge flattens the buffers when the run is over.
type Recorder struct {
	bufs []*buffer
	crit *critpath.Rec
	part []int // current job: rank -> buffer; nil on one buffer
	pid  int   // current job id (trace "process")
}

// buffer is one shard's private metrics registry, tracer and profiler.
type buffer struct {
	m    *Metrics
	tr   *Tracer
	prof *profile.Profiler

	// last is the transfer the fabric most recently timed from one of
	// this buffer's ranks (Xfer), kept for the Wire event that claims
	// it: emitted right after the fabric call, under the cooperative
	// scheduler it sees its own transfer.
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

func (b *buffer) parkName(why string) parkName {
	if n, ok := b.parkNames[why]; ok {
		return n
	}
	if b.parkNames == nil {
		b.parkNames = make(map[string]parkName)
	}
	n := parkName{metric: "sched.park:" + why, span: "park:" + why}
	b.parkNames[why] = n
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

// New creates an empty one-buffer Recorder. The clock is bound per job
// by BeginJob; until then, time-stamped events are dropped.
func New(opt Options) *Recorder { return NewSharded(opt, 1) }

// NewSharded creates a Recorder with one private buffer per engine
// shard, all with the same options; a job is opened on it with
// BeginShardedJob.
func NewSharded(opt Options, shards int) *Recorder {
	r := &Recorder{bufs: make([]*buffer, max(shards, 1))}
	for i := range r.bufs {
		b := &buffer{m: NewMetrics()}
		if opt.Trace {
			b.tr = &Tracer{}
		}
		if opt.Profile || opt.CritPath {
			b.prof = profile.New()
		}
		r.bufs[i] = b
	}
	if opt.CritPath {
		r.crit = critpath.New(r.bufs[0].prof, len(r.bufs))
		for _, b := range r.bufs {
			b.prof.SetSink(r.crit)
		}
	}
	return r
}

// of returns the buffer that owns rank's records.
func (r *Recorder) of(rank int) *buffer {
	if r.part == nil {
		return r.bufs[0]
	}
	return r.bufs[r.part[rank]]
}

// Metrics returns the registry; nil on a nil recorder. Like Prof, Crit
// and the report writers it reads the first buffer: Merge a
// multi-buffer recorder before reporting from it.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.bufs[0].m
}

// Prof returns the phase-attribution profiler for its report writers
// and read accessors; nil when profiling is off or the recorder is nil.
func (r *Recorder) Prof() *profile.Profiler {
	if r == nil {
		return nil
	}
	return r.bufs[0].prof
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
	r.begin(label, func(int) Clock { return clock }, nil, nranks)
}

// BeginShardedJob opens a job on a multi-buffer recorder: part maps
// each rank to the engine shard — and so the buffer — that owns it
// (shard workers read it concurrently: it must not change while the
// job runs), clock supplies each shard's clock (sim.Engine.ShardClock).
func (r *Recorder) BeginShardedJob(label string, clock func(shard int) Clock, part []int) {
	r.begin(label, clock, part, len(part))
}

func (r *Recorder) begin(label string, clock func(int) Clock, part []int, nranks int) {
	if r == nil {
		return
	}
	r.pid++
	r.part = part
	r.crit.BeginJob(label, part, nranks)
	for i, b := range r.bufs {
		// Park state is materialized lazily as ranks first park (appended
		// records are zeroed even when the backing arrays are reused), so
		// idle ranks of a large job cost nothing.
		b.parkAt = b.parkAt[:0]
		b.parkWhy = b.parkWhy[:0]
		// Process and rank lane names go to the first buffer only, so a
		// merged trace names each lane exactly once.
		if b.tr != nil && i == 0 {
			b.tr.meta(r.pid, label, nranks)
		}
		b.prof.BeginJob(clock(i))
	}
}

// Merge flattens the per-shard buffers, in shard id order, into a
// fresh one-buffer Recorder ready for the report writers (a one-buffer
// recorder is already flat and is returned as is). Call it only after
// sim.Engine.Run has returned. The merge is deterministic and, for
// everything per-rank indexed, exact: a rank lives on exactly one
// shard, so the buffers' per-rank series are disjoint and sum to the
// registry a one-buffer run would have built (per-node link telemetry
// too, under a node-aligned partition). The merged trace is each
// buffer's event stream concatenated in shard id order: stable across
// runs, though grouped by shard rather than interleaved by timestamp
// (trace viewers sort on load).
func (r *Recorder) Merge() *Recorder {
	if len(r.bufs) == 1 {
		return r
	}
	flat := &buffer{m: NewMetrics()}
	if r.bufs[0].tr != nil {
		flat.tr = &Tracer{}
	}
	if r.bufs[0].prof != nil {
		flat.prof = profile.New()
	}
	for _, b := range r.bufs {
		flat.m.Merge(b.m)
		if flat.tr != nil {
			flat.tr.events = append(flat.tr.events, b.tr.events...)
		}
		flat.prof.Merge(b.prof)
	}
	// The critical-path recorder was never split; its report contrasts
	// against the merged profiler.
	r.crit.SetFlat(flat.prof)
	return &Recorder{bufs: []*buffer{flat}, crit: r.crit, pid: r.pid}
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

// --- sim.Observer: one Recorder observes every shard (a rank always
// reports from its home shard, whose buffer it resolves to) ------------

// RankParked implements sim.Observer: a rank blocked on a condition.
// Pure time passage ("elapse") is not a wait and is not recorded.
func (r *Recorder) RankParked(rank int, why string, at sim.Time) {
	if r == nil || why == "elapse" || rank < 0 {
		return
	}
	b := r.of(rank)
	for len(b.parkAt) <= rank {
		b.parkAt = append(b.parkAt, 0)
		b.parkWhy = append(b.parkWhy, "")
	}
	b.parkAt[rank] = at
	b.parkWhy[rank] = why
	r.crit.Parked(rank, why, at)
}

// RankResumed implements sim.Observer: the parked rank was released.
func (r *Recorder) RankResumed(rank int, at sim.Time) {
	if r == nil || rank < 0 {
		return
	}
	b := r.of(rank)
	if rank >= len(b.parkAt) || b.parkWhy[rank] == "" {
		return
	}
	n := b.parkName(b.parkWhy[rank])
	b.parkWhy[rank] = ""
	b.m.AddTime(rank, n.metric, at-b.parkAt[rank])
	if b.tr != nil {
		b.tr.span(r.pid, rank, "sched", n.span, b.parkAt[rank], at, nil)
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
