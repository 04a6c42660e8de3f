package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestContinuationDeadlockDetection: every rank parked with no events
// left is reported as a Deadlock naming the waiters.
func TestContinuationDeadlockDetection(t *testing.T) {
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		p.Elapse(5)
		p.Park("never-signalled")
	})
	var d *Deadlock
	if !errors.As(err, &d) {
		t.Fatalf("want *Deadlock, got %v", err)
	}
	if len(d.Waiting) != 2 {
		t.Fatalf("want 2 waiting ranks, got %v", d.Waiting)
	}
}

// TestContinuationRankPanic: a rank panic surfaces as the run error
// while its peers are parked.
func TestContinuationRankPanic(t *testing.T) {
	e := NewEngine()
	err := e.Run(3, func(p *Proc) {
		p.Elapse(Time(p.ID() + 1))
		if p.ID() == 1 {
			panic("boom")
		}
		p.Park("stuck")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error containing boom, got %v", err)
	}
}

// TestContinuationMaxTime: the virtual-time watchdog fires.
func TestContinuationMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 100
	err := e.Run(2, func(p *Proc) {
		for {
			p.Elapse(60)
		}
	})
	var tl *ErrTimeLimit
	if !errors.As(err, &tl) {
		t.Fatalf("want *ErrTimeLimit, got %v", err)
	}
}

// settledGoroutines waits for the runtime's goroutine count to drop to
// at most want, tolerating scheduling delay after Run returns.
func settledGoroutines(want int) int {
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// checkNoLeak runs f repeatedly and requires the goroutine count to
// return to its baseline: every coroutine and the dispatcher's worker
// of an abnormally ended run must have exited before Run returned.
func checkNoLeak(t *testing.T, iters int, f func(iter int)) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < iters; i++ {
		f(i)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// testDrain is the body of the three leak tests. The golden file holds
// one recording of the drain per scheduler the recording commit had
// (they agree — which is what let them collapse into one engine); each
// becomes a subtest that must be reproduced exactly, 50 times over,
// without leaking.
func testDrain(t *testing.T, w workload) {
	labels, bodies := readSections(t, w.name)
	if *update {
		writeSections(t, w.name, labels, w.run(false))
		labels, bodies = readSections(t, w.name)
	}
	for _, label := range labels {
		t.Run(label, func(t *testing.T) {
			checkNoLeak(t, 50, func(iter int) {
				if got := w.run(iter%2 == 1); got != bodies[label] {
					t.Fatalf("iter %d diverges from the %s recording: %s", iter, label, lineDiff(bodies[label], got))
				}
			})
		})
	}
}

// TestNoGoroutineLeakOnPanic: a rank panic with peers parked must not
// leak the parked ranks' coroutines — they are drained, in rank order,
// before Run returns.
func TestNoGoroutineLeakOnPanic(t *testing.T) { testDrain(t, drainPanic) }

// TestNoGoroutineLeakOnDeadlock: deadlocked runs drain every parked
// rank before returning.
func TestNoGoroutineLeakOnDeadlock(t *testing.T) { testDrain(t, drainDeadlock) }

// TestNoGoroutineLeakOnMaxTime: time-limit aborts drain too.
func TestNoGoroutineLeakOnMaxTime(t *testing.T) { testDrain(t, drainMaxTime) }

// TestGoexitInRankBody: runtime.Goexit in a rank body (every t.Fatal is
// one) cannot be recovered, and iter.Pull re-raises it in the
// dispatcher. Run must neither hang nor let it escape to its caller: it
// drains the remaining ranks in rank order, leaks nothing, and returns
// an error naming the rank — also when the Goexit happens while the
// rank is itself being drained.
func TestGoexitInRankBody(t *testing.T) {
	checkNoLeak(t, 20, func(int) {
		var unwound []int
		err := NewEngine().Run(8, func(p *Proc) {
			if p.ID() < 4 {
				defer func() { unwound = append(unwound, p.ID()) }()
			}
			if p.ID() == 2 {
				defer runtime.Goexit() // a second one, mid-unwind
			}
			if p.ID() == 3 {
				p.Elapse(10)
				runtime.Goexit()
			}
			p.Park("victim")
		})
		if err == nil || err.Error() != "sim: rank 3 exited via runtime.Goexit" {
			t.Fatalf("err = %v, want the Goexit of rank 3", err)
		}
		if got := fmt.Sprint(unwound); got != "[3 0 1 2]" {
			t.Fatalf("unwind order %s, want [3 0 1 2]", got)
		}
	})
}

// TestHandlerPanicIsAnError: a panic or runtime.Goexit in an event
// handler ends the run with the handler's error instead of killing the
// process, blames no rank, and leaks nothing — whether the handler runs
// under the dispatcher or inline, on the stack of a parked rank: two
// ranks parked (the second one's park fires it), the same with the
// inline paths off, one rank's Elapse and one rank's Park. Every rank
// body's deferred cleanup runs, with the run draining.
func TestHandlerPanicIsAnError(t *testing.T) {
	for _, job := range []struct {
		name     string
		n        int
		noInline bool
		wait     func(p *Proc)
	}{
		{"parked", 2, false, func(p *Proc) { p.Park("waiting") }},
		{"dispatcher", 2, true, func(p *Proc) { p.Park("waiting") }},
		{"elapse", 1, false, func(p *Proc) { p.Elapse(10) }},
		{"park", 1, false, func(p *Proc) { p.Park("waiting") }},
	} {
		for _, tc := range []struct {
			name    string
			handler func()
			want    string
		}{
			{"panic", func() { panic("bad handler") }, "sim: event handler panicked: bad handler"},
			{"goexit", runtime.Goexit, "sim: event handler exited via runtime.Goexit"},
		} {
			t.Run(job.name+"/"+tc.name, func(t *testing.T) {
				checkNoLeak(t, 5, func(int) {
					e := NewEngine()
					e.noInline = job.noInline
					unwound := 0
					err := e.Run(job.n, func(p *Proc) {
						defer func() {
							if e.draining {
								unwound++
							}
						}()
						if p.ID() == 0 {
							e.At(5, tc.handler)
						}
						job.wait(p)
					})
					if err == nil || err.Error() != tc.want {
						t.Fatalf("err = %v, want %q", err, tc.want)
					}
					if unwound != job.n {
						t.Fatalf("%d of %d rank bodies unwound while draining", unwound, job.n)
					}
				})
			})
		}
	}
}

// TestContinuationFiberReuse: ranks that never park run to completion
// one after another — the run must not hold one coroutine per rank.
func TestContinuationFiberReuse(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	peak := 0
	err := e.Run(10000, func(p *Proc) {
		if p.ID()%1000 == 0 {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > before+10 {
		t.Fatalf("%d goroutines live during a no-park run (baseline %d)", peak, before)
	}
}
