package obs

import (
	"testing"

	"repro/internal/obs/critpath"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

type fixedClock sim.Time

func (c fixedClock) Now() sim.Time { return sim.Time(c) }

// TestDisabledRecorderAllocatesNothing pins the disabled-observability
// cost to zero heap allocations: every event on a nil Recorder must
// return before building anything, and passing it its arguments — the
// by-value event structs, an enum handed over as a fmt.Stringer — must
// build nothing either. Hot paths emit these on every operation, so a
// single alloc here would dominate wall-clock profiles.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder // disabled: nil recorder
	allocs := testing.AllocsPerRun(1000, func() { everyEvent(r) })
	if allocs != 0 {
		t.Errorf("nil recorder allocated %.1f per run, want 0", allocs)
	}
}

// profCycle is one operation's worth of the events the profiler
// records: a scope, phases of each reporting shape, a timed transfer
// with link statistics, both matrix sides.
func profCycle(r *Recorder) {
	r.OpBegin(1, profile.OpGet)
	r.Waited(Wait{Kind: WaitLock, Rank: 1, From: 0, To: 5, Peer: 2})
	r.Xfer(Xfer{Src: 1, Dst: 2, Bytes: 128, NicS: 0, NicD: 1, Now: 5, Base: 6, Start: 7, Occupy: 2, Arrive: 9})
	r.Wire(1, 1, 2, profile.MsgGet, profile.RouteRMA, 128)
	r.Booked(Booking{Rank: 1, At: 9, Start: 10, Done: 11})
	r.Landed(1, 2, profile.MsgGet, profile.RouteRMA, 128)
	r.OpEnd(1)
}

// TestDisabledProfilerAllocatesNothing pins the disabled-profiler cost
// to zero heap allocations: with -profile off the events that carry
// phases, matrix cells and link statistics reach a nil
// *profile.Profiler, which must return before touching any state (the
// metrics they also feed are warm after the first cycle).
func TestDisabledProfilerAllocatesNothing(t *testing.T) {
	r := New(Options{}) // no Profile: Prof() returns nil
	if r.Prof() != nil {
		t.Fatal("recorder without Options.Profile returned a profiler")
	}
	r.BeginJob("job", fixedClock(0), 4)
	allocs := testing.AllocsPerRun(1000, func() { profCycle(r) })
	if allocs != 0 {
		t.Errorf("nil profiler allocated %.1f per run, want 0", allocs)
	}
}

// TestProfilerRecordPathAllocatesNothing pins the enabled profiler's
// steady-state record cycle to zero allocations once its lazily-grown
// tables are warm. Histograms, matrix cells, and link stats allocate on
// first touch only; every subsequent operation must be free.
func TestProfilerRecordPathAllocatesNothing(t *testing.T) {
	r := New(Options{Profile: true})
	r.BeginJob("job", fixedClock(0), 4)
	if r.Prof() == nil {
		t.Fatal("recorder with Options.Profile returned nil profiler")
	}
	profCycle(r) // warm every table the cycle touches
	allocs := testing.AllocsPerRun(1000, func() { profCycle(r) })
	if got := r.Prof().TotalHists(profile.OpGet)[1].Count; got != 1002 {
		t.Errorf("profiler closed %d get scopes, want one per cycle", got)
	}
	if allocs != 0 {
		t.Errorf("warm profiler record cycle allocated %.1f per run, want 0", allocs)
	}
}

// TestDisabledCritPathAllocatesNothing pins the disabled critical-path
// cost to zero heap allocations: with -critpath off every wake-edge
// event (fabric delivery, lock grants, handler provenance) and the
// park/resume forwarding reach a nil *critpath.Rec, which must return
// before touching any state.
func TestDisabledCritPathAllocatesNothing(t *testing.T) {
	r := New(Options{}) // no CritPath: Crit() returns nil
	if r.Crit() != nil {
		t.Fatal("recorder without Options.CritPath returned a critpath recorder")
	}
	r.BeginJob("job", fixedClock(0), 4)
	allocs := testing.AllocsPerRun(1000, func() {
		r.RankParked(0, "recv", 0)
		edge := r.MsgHop(1, 1, 2, 3, 0, 1)
		r.WakeCause(0, edge)
		r.WakeGrant(0, 1, 3)
		prev := r.Enter(0, edge)
		r.WakeAmbient(0)
		r.Leave(0, prev)
		r.RankResumed(0, 5)
		r.RankFinished(0, 9)
		if edge != 0 {
			t.Fatal("disabled critical path handed out an edge")
		}
	})
	if allocs != 0 {
		t.Errorf("nil critpath recorder allocated %.1f per run, want 0", allocs)
	}
}

// TestCritPathClosedJobDropsRecords pins the closed-recorder edge
// paths: after the job is flushed (r.open false), phase and scope
// forwarding must drop their records without growing any log, so
// late attributions cannot corrupt the next job's analysis.
func TestCritPathClosedJobDropsRecords(t *testing.T) {
	r := New(Options{CritPath: true})
	c := r.Crit()
	if c == nil {
		t.Fatal("recorder with Options.CritPath returned nil critpath recorder")
	}
	// No BeginJob yet: the recorder is closed.
	allocs := testing.AllocsPerRun(1000, func() {
		c.RawPhase(0, profile.OpPut, profile.PhaseWire, 0, 5)
		c.RawScope(0, profile.OpPut, 0, 5)
	})
	if allocs != 0 {
		t.Errorf("closed critpath recorder allocated %.1f per run, want 0", allocs)
	}
}

// TestCritPathWarmRecordCycleBounded pins the enabled recorder's
// steady-state record cycle once the per-rank logs are warm: the logs
// append into reused backing arrays, so a full
// park/hop/wake/resume/phase cycle must stay allocation-free after
// BeginJob reset reuses the arrays grown by an earlier job.
func TestCritPathWarmRecordCycleBounded(t *testing.T) {
	r := New(Options{CritPath: true})
	r.BeginJob("warm", fixedClock(0), 4)
	c := r.Crit()
	var refs [16]critpath.Ref
	cycle := func() {
		for i := range refs {
			c.Parked(1, "recv", sim.Time(i))
			ref := c.MsgHop(0, sim.Time(i), sim.Time(i+1), sim.Time(i+2), 0, 1)
			c.WakeCause(1, ref)
			c.Resumed(1, sim.Time(i+3))
			c.RawPhase(1, profile.OpGet, profile.PhaseWire, sim.Time(i), sim.Time(i+3))
			c.RawScope(1, profile.OpGet, sim.Time(i), sim.Time(i+3))
			refs[i] = ref
		}
	}
	cycle() // grow the logs once
	// A new job reuses the grown arrays; the same cycle must then be
	// free except for amortized slice growth, which the first pass
	// already paid.
	r.BeginJob("warm2", fixedClock(0), 4)
	cycle()
	r.BeginJob("warm3", fixedClock(0), 4)
	allocs := testing.AllocsPerRun(100, func() {
		cycle()
		// Reset the per-job logs without analyzing (analysis allocates
		// its aggregate, which is a per-job cost, not a per-record one).
		r.BeginJob("warm3", fixedClock(0), 4)
	})
	// The analyze/flush in BeginJob builds per-job records; allow that
	// bounded per-job cost but not per-record growth (16 records/run).
	if allocs > 8 {
		t.Errorf("warm critpath record cycle allocated %.1f per run, want <= 8 (bounded per-job, zero per-record)", allocs)
	}
}

// TestElapseParkAllocatesNothing pins the live recorder's handling of
// the scheduler's synthetic "elapse" parks (which it must ignore) to
// zero allocations: the sim engine reports one such pair per Elapse,
// so this path runs millions of times per benchmark.
func TestElapseParkAllocatesNothing(t *testing.T) {
	r := New(Options{})
	r.BeginJob("job", fixedClock(0), 4)
	allocs := testing.AllocsPerRun(1000, func() {
		r.RankParked(1, "elapse", 10)
		r.RankResumed(1, 20)
	})
	if allocs != 0 {
		t.Errorf("elapse park/resume allocated %.1f per run, want 0", allocs)
	}
}

// TestParkNameInterning checks that repeated parks on the same reason
// reuse the interned metric/span names instead of re-concatenating.
func TestParkNameInterning(t *testing.T) {
	r := New(Options{})
	r.BeginJob("job", fixedClock(0), 2)
	// Warm the intern table.
	r.RankParked(0, "recv", 0)
	r.RankResumed(0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		r.RankParked(0, "recv", 10)
		r.RankResumed(0, 20)
	})
	// AddTime on an existing counter and an interned name must not
	// allocate.
	if allocs != 0 {
		t.Errorf("interned park/resume allocated %.1f per run, want 0", allocs)
	}
	if got := r.parkName("recv").metric; got != "sched.park:recv" {
		t.Errorf("interned metric = %q, want sched.park:recv", got)
	}
	if got := r.parkName("recv").span; got != "park:recv" {
		t.Errorf("interned span = %q, want park:recv", got)
	}
}

// BenchmarkParkResume measures the live park-accounting path with
// metrics only (the common -stats configuration).
func BenchmarkParkResume(b *testing.B) {
	r := New(Options{})
	r.BeginJob("bench", fixedClock(0), 8)
	r.RankParked(0, "recv", 0) // warm the intern table and counter
	r.RankResumed(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RankParked(0, "recv", sim.Time(i))
		r.RankResumed(0, sim.Time(i+1))
	}
}
