package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestElapseAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end Time
	err := e.Run(1, func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("start time = %v, want 0", p.Now())
		}
		p.Elapse(1500)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != 1500 {
		t.Errorf("after Elapse(1500): now = %v, want 1500", end)
	}
	if e.Stats().FinalTime != 1500 {
		t.Errorf("FinalTime = %v, want 1500", e.Stats().FinalTime)
	}
}

func TestElapseZeroOrNegativeIsNoop(t *testing.T) {
	e := NewEngine()
	err := e.Run(1, func(p *Proc) {
		p.Elapse(0)
		p.Elapse(-5)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRanksRunConcurrentlyInVirtualTime(t *testing.T) {
	// Two ranks each elapse 100; total virtual time is 100, not 200.
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		p.Elapse(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().FinalTime != 100 {
		t.Errorf("FinalTime = %v, want 100", e.Stats().FinalTime)
	}
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var order []int
	err := e.Run(1, func(p *Proc) {
		e.At(50, func() { order = append(order, 2) })
		e.At(10, func() { order = append(order, 1) })
		e.At(50, func() { order = append(order, 3) }) // same time: FIFO by seq
		p.Elapse(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
}

func TestParkUnparkAcrossRanks(t *testing.T) {
	e := NewEngine()
	var procs [2]*Proc
	got := false
	err := e.Run(2, func(p *Proc) {
		procs[p.ID()] = p
		if p.ID() == 0 {
			p.Park("waiting for rank 1")
			got = true
		} else {
			p.Elapse(42)
			e.Unpark(procs[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("rank 0 was never unparked")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		p.Park("never woken")
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("error type = %T, want *Deadlock", err)
	}
	if len(d.Waiting) != 2 {
		t.Errorf("waiting ranks = %d, want 2", len(d.Waiting))
	}
	if !strings.Contains(err.Error(), "never woken") {
		t.Errorf("deadlock message %q should name the park reason", err)
	}
}

func TestRankPanicIsReported(t *testing.T) {
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Elapse(10)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want rank panic mentioning boom", err)
	}
}

func TestRunRejectsNonPositiveN(t *testing.T) {
	if err := NewEngine().Run(0, func(*Proc) {}); err == nil {
		t.Error("Run(0) should fail")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// The same program must produce the same event trace every run.
	run := func() []int {
		e := NewEngine()
		var trace []int
		err := e.Run(4, func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Elapse(Time(10 * (p.ID() + 1)))
				trace = append(trace, p.ID())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestManyRanks(t *testing.T) {
	e := NewEngine()
	n := 500
	count := 0
	err := e.Run(n, func(p *Proc) {
		p.Elapse(Time(p.ID() + 1))
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("ran %d bodies, want %d", count, n)
	}
	if e.Stats().FinalTime != Time(n) {
		t.Errorf("FinalTime = %v, want %d", e.Stats().FinalTime, n)
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	e := NewEngine()
	err := e.Run(1, func(p *Proc) {
		p.Elapse(100)
		fired := Time(-1)
		e.At(50, func() { fired = e.Now() }) // in the past: clamp to now
		p.Elapse(1)
		if fired != 100 {
			t.Errorf("past event fired at %v, want 100", fired)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	if err := quick.Check(func(us uint32) bool {
		s := float64(us) / 1e6 // up to ~4295 seconds
		tm := FromSeconds(s)
		if s > 0 && tm <= 0 {
			return false
		}
		// Round-trip error is at most 1ns.
		diff := tm.Seconds() - s
		return diff < 1e-9 && diff > -1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFromSecondsNeverZeroForPositive(t *testing.T) {
	if got := FromSeconds(1e-12); got != 1 {
		t.Errorf("FromSeconds(1e-12) = %v, want 1", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestUnparkRunnableIsIdempotent(t *testing.T) {
	e := NewEngine()
	var target *Proc
	err := e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			target = p
			p.Park("double wake")
		} else {
			p.Elapse(1)
			e.Unpark(target)
			e.Unpark(target) // second unpark of a runnable proc: no-op
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		p.Elapse(10)
		p.Elapse(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Parks != 4 {
		t.Errorf("Parks = %d, want 4", st.Parks)
	}
	if st.Events != 4 {
		t.Errorf("Events = %d, want 4", st.Events)
	}
}

// TestMaxTimeWatchdog: the time limit ends a livelocked rank, which
// never resumes past it — also when its own Elapse crosses the limit
// with nothing else to run.
func TestMaxTimeWatchdog(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 1000
	err := e.Run(1, func(p *Proc) {
		for { // virtual livelock: keeps sleeping forever
			p.Elapse(100)
			if p.Now() > e.MaxTime {
				t.Errorf("rank resumed at %v, past MaxTime", p.Now())
			}
		}
	})
	if err == nil {
		t.Fatal("watchdog did not fire")
	}
	if _, ok := err.(*ErrTimeLimit); !ok {
		t.Fatalf("error type %T, want *ErrTimeLimit", err)
	}
}

func TestMaxTimeNotTriggeredByNormalRun(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 1000
	if err := e.Run(2, func(p *Proc) { p.Elapse(500) }); err != nil {
		t.Fatal(err)
	}
}

// TestWarmParkResumeAllocatesNothing pins the hand-off: once a rank's
// coroutine exists, a park -> dispatcher -> resume cycle (the parked
// Elapse path) allocates nothing.
func TestWarmParkResumeAllocatesNothing(t *testing.T) {
	e := NewEngine()
	e.noInline = true
	var allocs float64
	if err := e.Run(2, func(p *Proc) {
		p.Elapse(1) // warm: coroutine started, heap and FIFO grown
		if p.ID() == 0 {
			allocs = testing.AllocsPerRun(1000, func() { p.Elapse(1) })
		} else {
			for i := 0; i < 1002; i++ {
				p.Elapse(1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm park/resume cycle allocates %v objects, want 0", allocs)
	}
}

// TestWarmInlineParkAllocatesNothing pins the inline park: a rank that
// schedules its own wake event and parks fires the event itself and
// resumes without a switch, and allocates nothing doing so.
func TestWarmInlineParkAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var allocs float64
	if err := e.Run(1, func(p *Proc) {
		wake := func() { e.Unpark(p) }
		selfWake := func() {
			e.At(p.Now()+1, wake)
			p.Park("self")
		}
		selfWake() // warm: heap grown
		allocs = testing.AllocsPerRun(1000, selfWake)
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm self-waking park allocates %v objects, want 0", allocs)
	}
}

// TestRankStartAllocationBudget pins what a rank costs to start: the
// coroutine (iter.Pull's state, its next/stop/yield closures, the
// runtime coro and its goroutine) plus the body closure — 12 objects
// measured; the budget leaves room for a runtime that adds one or two.
func TestRankStartAllocationBudget(t *testing.T) {
	const n, budget = 64, 16
	perRun := testing.AllocsPerRun(20, func() {
		if err := NewEngine().Run(n, func(p *Proc) { p.Park("x") }); err == nil {
			t.Fatal("want a deadlock")
		}
	})
	// The engine itself (slab, FIFO, channel, the Deadlock report and
	// its map) is a per-run constant, measured with a
	// one-rank run and subtracted.
	fixed := testing.AllocsPerRun(20, func() { NewEngine().Run(1, func(p *Proc) { p.Park("x") }) })
	if perRank := (perRun - fixed) / (n - 1); perRank > budget {
		t.Errorf("starting a rank allocates %.1f objects, budget %d", perRank, budget)
	}
}

// BenchmarkElapseSoloRank measures the inline fast path: one rank
// sleeping repeatedly with no competing events. The parked variant
// pays the coroutine switch to the dispatcher and back on every call.
func BenchmarkElapseSoloRank(b *testing.B) {
	for _, mode := range []struct {
		name     string
		noInline bool
	}{{"inline", false}, {"parked", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			e.noInline = mode.noInline
			if err := e.Run(1, func(p *Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Elapse(1)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkParkSelfWake measures the inline park: one rank schedules
// its own wake event and parks, the shape of an RMA epoch's lock grant
// or unlock ack. Inline, the rank fires the event and resumes itself;
// parked, every call switches to the dispatcher and back.
func BenchmarkParkSelfWake(b *testing.B) {
	for _, mode := range []struct {
		name     string
		noInline bool
	}{{"inline", false}, {"parked", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			e.noInline = mode.noInline
			if err := e.Run(1, func(p *Proc) {
				wake := func() { e.Unpark(p) }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.At(p.Now()+1, wake)
					p.Park("self")
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkElapseTwoRanks measures the contended path: two ranks whose
// sleeps interleave, so every elapse wakes through the dispatcher.
func BenchmarkElapseTwoRanks(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	if err := e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			p.Elapse(1)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyRanks measures dispatcher overhead with a park-heavy
// interleaving workload, rank start included.
func BenchmarkManyRanks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewEngine().Run(256, func(p *Proc) {
			for j := 0; j < 16; j++ {
				p.Elapse(Time(1 + p.ID()%7))
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
