package critpath

import (
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Job is one analyzed job's invariant record: the walk's segment
// durations (PathNs) must sum exactly to the makespan.
type Job struct {
	Label    string   `json:"label"`
	Makespan sim.Time `json:"makespan_ns"`
	PathNs   sim.Time `json:"path_ns"`
	Segments int      `json:"segments"`
	Start    int      `json:"start_rank"` // rank the walk started from (last to finish)
}

// cellKey is one attribution cell of the critical path:
// rank × operation × extended phase × NIC.
type cellKey struct {
	rank int32
	op   uint8
	ph   uint8
	nic  int32
}

// chainKey aggregates critical wait intervals by park reason and the
// rank at the other end of the releasing edge (-1: rank-local wait).
type chainKey struct {
	why  string
	from int32
}

type chainVal struct {
	count int64
	ns    sim.Time
}

// agg accumulates analyzed jobs.
type agg struct {
	jobs   []Job
	cells  map[cellKey]sim.Time
	chains map[chainKey]chainVal
}

func newAgg() agg {
	return agg{cells: map[cellKey]sim.Time{}, chains: map[chainKey]chainVal{}}
}

// view is one job's complete log set: the per-rank logs, plus the hop
// table for Ref resolution.
type view struct {
	label string
	ranks []rankLog
	hops  []hop
}

func (v *view) resolve(ref Ref) (hop, bool) {
	if ref == 0 || int(ref) > len(v.hops) {
		return hop{}, false
	}
	return v.hops[ref-1], true
}

// walker is the backward critical-path walk state.
type walker struct {
	v   *view
	agg *agg

	// Per-rank descending cursors into the wait, activity and scope
	// logs: each is the index one past the next candidate.
	cur []struct{ w, a, s int }

	path sim.Time
	segs int
}

// analyze computes the critical path of one job and folds its
// attribution into agg. The walk starts at the last rank to finish
// (smallest id on ties) and moves the time frontier from the makespan
// back to zero; every step emits segments exactly tiling the interval
// it consumes, so the emitted durations sum to the makespan.
func analyze(v view, out *agg) {
	start, makespan := -1, sim.Time(-1)
	for rank := range v.ranks {
		if f := v.ranks[rank].fin; f > makespan {
			start, makespan = rank, f
		}
	}
	if start < 0 {
		return // no rank finished: nothing recorded
	}
	// Close any wait left open (a drained or deadlocked rank) at that
	// rank's own finish horizon so the logs stay well-formed.
	for rank := range v.ranks {
		if ws := v.ranks[rank].waits; len(ws) > 0 && ws[len(ws)-1].end < 0 {
			f := v.ranks[rank].fin
			if f < ws[len(ws)-1].start {
				f = ws[len(ws)-1].start
			}
			ws[len(ws)-1].end = f
			ws[len(ws)-1].cause = 0
		}
	}
	w := &walker{v: &v, agg: out, cur: make([]struct{ w, a, s int }, len(v.ranks))}
	for rank := range v.ranks {
		l := &v.ranks[rank]
		w.cur[rank].w, w.cur[rank].a, w.cur[rank].s = len(l.waits), len(l.acts), len(l.scopes)
	}

	rank, t := start, makespan
	for t > 0 {
		wt := w.popWait(rank, t)
		if wt == nil {
			// No wait before t: the rank computed straight through.
			w.emitRange(rank, 0, t, false, "", -1)
			t = 0
			break
		}
		if wt.end <= t {
			// Activity between the wait's end and the frontier.
			w.emitRange(rank, wt.end, t, false, "", -1)
			t = wt.end
			if h, ok := v.resolve(wt.cause); ok {
				rank, t = w.unwind(h, rank, t, wt.why)
			} else {
				// Rank-local wait (self-completion, elapse-like).
				w.emitRange(rank, wt.start, t, true, wt.why, -1)
				t = wt.start
			}
		} else {
			// Frontier landed mid-wait: the jump target was itself
			// blocked when it released us. Attribute up to the wait's
			// start; its own cause explains a later instant, not this
			// one, so the walk stays on this rank.
			from := -1
			if h, ok := v.resolve(wt.cause); ok {
				from = h.from
			}
			w.emitRange(rank, wt.start, t, true, wt.why, from)
			t = wt.start
		}
	}

	out.jobs = append(out.jobs, Job{
		Label:    v.label,
		Makespan: makespan,
		PathNs:   w.path,
		Segments: w.segs,
		Start:    start,
	})
}

// popWait returns rank's latest wait starting strictly before t and
// consumes it. The frontier is globally non-increasing, so the
// per-rank descending cursor never has to back up.
func (w *walker) popWait(rank int, t sim.Time) *wait {
	if rank >= len(w.cur) {
		return nil
	}
	ws := w.v.ranks[rank].waits
	i := w.cur[rank].w
	for i > 0 && ws[i-1].start >= t {
		i--
	}
	if i == 0 {
		w.cur[rank].w = 0
		return nil
	}
	w.cur[rank].w = i - 1
	return &ws[i-1]
}

// unwind follows a dependence edge chain backward from the wait that
// ended at t on rank, emitting the wire and handler segments of each
// hop, and returns the rank and time the walk continues from.
func (w *walker) unwind(h hop, rank int, t sim.Time, why string) (int, sim.Time) {
	if h.kind == hopGrant {
		// Lock grant: the whole wait is bound by the releasing rank.
		s := clamp(h.sent, 0, t)
		w.emitRange(rank, s, t, true, why, h.from)
		if h.from < 0 {
			return rank, s // direct grant: stay local
		}
		return h.from, s
	}
	cur := t
	for {
		arr := clamp(h.arr, 0, cur)
		xfer := clamp(h.xfer, 0, arr)
		sent := clamp(h.sent, 0, xfer)
		// [arr, cur): delivery-to-release residual on the waiting rank
		// (and, on chained hops, the handler time of the hop above).
		w.emitRange(rank, arr, cur, true, why, h.from)
		// Wire segments belong to the sender: serialization and
		// propagation, then the time queued behind the link.
		w.emit(h.from, xfer, arr, opNone, uint8(profile.PhaseWire), h.nicS)
		w.emit(h.from, sent, xfer, opNone, uint8(profile.PhaseWireQueue), h.nicS)
		rank, cur = h.from, sent
		prev, ok := w.v.resolve(h.prev)
		if !ok {
			return rank, cur
		}
		h = prev
	}
}

func clamp(x, lo, hi sim.Time) sim.Time {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// emitRange attributes [lo, hi) on rank through the activity log:
// covered parts keep their recorded (op, phase); gaps become "local"
// execution or, inside a wait, "blocked" time credited to the wait
// chain (why, from).
func (w *walker) emitRange(rank int, lo, hi sim.Time, blocked bool, why string, from int) {
	if hi <= lo {
		return
	}
	if blocked {
		ck := chainKey{why: why, from: int32(from)}
		c := w.agg.chains[ck]
		c.count++
		c.ns += hi - lo
		w.agg.chains[ck] = c
	}
	w.tile(rank, false, lo, hi,
		func(ac act, s, e sim.Time) { w.emit(rank, s, e, ac.op, ac.ph, -1) },
		func(s, e sim.Time) { w.gap(rank, s, e, blocked) })
}

// gap attributes an interval no activity covered: "local" execution
// (or "blocked" inside a wait), labeled with the operation scope that
// contained it when the scope log has one.
func (w *walker) gap(rank int, lo, hi sim.Time, blocked bool) {
	ph := phLocal
	if blocked {
		ph = phBlocked
	}
	w.tile(rank, true, lo, hi,
		func(sp act, s, e sim.Time) { w.emit(rank, s, e, sp.op, ph, -1) },
		func(s, e sim.Time) { w.emit(rank, s, e, opNone, ph, -1) })
}

// tile walks rank's activity log (or its scope log) — sorted, disjoint
// intervals — backward over [lo, hi) from the rank's descending cursor,
// handing each covered piece to in and each uncovered one to out,
// latest first. A rank with no log (rank < 0: an edge from no rank in
// particular) is one uncovered piece.
func (w *walker) tile(rank int, scopes bool, lo, hi sim.Time, in func(a act, s, e sim.Time), out func(s, e sim.Time)) {
	if rank < 0 || rank >= len(w.cur) {
		out(lo, hi)
		return
	}
	log, cur := w.v.ranks[rank].acts, &w.cur[rank].a
	if scopes {
		log, cur = w.v.ranks[rank].scopes, &w.cur[rank].s
	}
	i := *cur
	for i > 0 && log[i-1].start >= hi {
		i--
	}
	end := hi
	for i > 0 && log[i-1].end > lo {
		a := log[i-1]
		s, e := max(a.start, lo), min(a.end, end)
		if e < end {
			out(e, end)
		}
		in(a, s, e)
		end = s
		if a.start < lo {
			// The interval extends below this range; a later, lower
			// range on this rank may still need its remainder.
			break
		}
		i--
	}
	if end > lo {
		out(lo, end)
	}
	*cur = i
}

// emit records one critical-path segment. Every nanosecond of the
// makespan flows through here exactly once.
func (w *walker) emit(rank int, lo, hi sim.Time, op, ph uint8, nic int) {
	if hi <= lo {
		return
	}
	w.agg.cells[cellKey{rank: int32(rank), op: op, ph: ph, nic: int32(nic)}] += hi - lo
	w.path += hi - lo
	w.segs++
}
