package obs

import (
	"repro/internal/obs/critpath"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Sharded is the observability front for a multi-shard run
// (sim.Engine.Shards > 1). A single Recorder relies on the
// cooperative scheduler for single-threaded access, which a sharded
// engine no longer guarantees: shard workers run concurrently within a
// time window. Sharded therefore gives each shard a private Recorder —
// its own metrics registry, trace buffer, and profiler — bound to that
// shard's virtual clock, so no observability state is ever shared
// between workers. When the run finishes, Merge flattens the buffers
// in shard order.
//
// The merge is deterministic and, for everything per-rank indexed,
// exact: a rank lives on exactly one shard, so the per-rank series of
// different shards are disjoint and their sum is the union registry a
// sequential run would have built. Under a node-aligned partition the
// same holds for per-node link telemetry. The merged trace is each
// shard's (deterministic) event stream concatenated in shard id order —
// stable across runs, though events of different shards appear grouped
// by shard rather than interleaved by timestamp (trace viewers sort by
// timestamp on load).
type Sharded struct {
	recs []*Recorder
}

// NewSharded creates one private Recorder per shard, all with the same
// options.
func NewSharded(opt Options, shards int) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{recs: make([]*Recorder, shards)}
	for i := range s.recs {
		s.recs[i] = New(opt)
		if opt.CritPath {
			// Re-key the critical-path recorder with the shard id so
			// dependence-edge references resolve across shards after
			// the merge; a shard recorder's logs are partial, so it
			// defers analysis to Merge.
			s.recs[i].crit = critpath.NewShard(i, s.recs[i].prof)
			s.recs[i].prof.SetSink(s.recs[i].crit)
		}
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.recs) }

// Rec returns shard i's private Recorder. Every recording a rank makes
// must go through the recorder of the shard that owns the rank.
func (s *Sharded) Rec(i int) *Recorder { return s.recs[i] }

// Observers adapts the front to sim.Engine.ShardObservers, giving each
// shard its recorder as the shard-local scheduler observer.
func (s *Sharded) Observers() func(int) sim.Observer {
	return func(i int) sim.Observer { return s.recs[i] }
}

// BeginJob opens a job on every sub-recorder; clock supplies each
// shard's virtual clock (typically sim.Engine.ShardClock). Trace
// metadata — process and rank lane names — is emitted by shard 0 only,
// so the merged trace names each lane exactly once.
func (s *Sharded) BeginJob(label string, clock func(shard int) Clock, nranks int) {
	for i, r := range s.recs {
		r.beginJob(label, clock(i), nranks, i == 0)
	}
}

// Merge flattens the per-shard buffers, in shard id order, into a
// fresh Recorder ready for WriteTrace, WriteStats, and the profile
// report writers. Call it only after sim.Engine.Run has returned (or
// between windows, when no shard worker is executing).
func (s *Sharded) Merge() *Recorder {
	r0 := s.recs[0]
	out := &Recorder{
		m:      NewMetrics(),
		pid:    r0.pid,
		job:    r0.job,
		clock:  r0.clock,
		nranks: r0.nranks,
	}
	if r0.tr != nil {
		out.tr = NewTracer()
	}
	if r0.prof != nil {
		out.prof = profile.New()
	}
	for _, r := range s.recs {
		out.m.Merge(r.m)
		if out.tr != nil && r.tr != nil {
			out.tr.events = append(out.tr.events, r.tr.events...)
		}
		out.prof.Merge(r.prof)
	}
	if r0.crit != nil {
		crits := make([]*critpath.Rec, len(s.recs))
		for i, r := range s.recs {
			crits[i] = r.crit
		}
		// The shard logs are disjoint per rank and edge references
		// carry their shard id, so the stitched recorder analyzes the
		// run exactly as a single-shard recorder would have.
		out.crit = critpath.Merge(crits, out.prof)
	}
	return out
}
