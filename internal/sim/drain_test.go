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
// return to its baseline: every coroutine and shard worker of an
// abnormally ended run must have exited before Run returned.
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
// without leaking. The same drain must then hold per rank at 2 and 4
// shards.
func testDrain(t *testing.T, w workload) {
	labels, bodies := readSections(t, w.name)
	if *update {
		writeSections(t, w.name, labels, w.run(0, false).String())
		labels, bodies = readSections(t, w.name)
	}
	for _, label := range labels {
		t.Run(label, func(t *testing.T) {
			checkNoLeak(t, 50, func(iter int) {
				if got := w.run(0, iter%2 == 1).String(); got != bodies[label] {
					t.Fatalf("iter %d diverges from the %s recording: %s", iter, label, lineDiff(bodies[label], got))
				}
			})
		})
	}
	t.Run("sharded", func(t *testing.T) {
		checkNoLeak(t, 10, func(iter int) {
			w.checkShards(t, bodies[labels[0]], iter%2 == 1, 2, 4)
		})
	})
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
// an error naming the rank — at one shard and at two, and also when the
// Goexit happens while the rank is itself being drained.
func TestGoexitInRankBody(t *testing.T) {
	for _, shards := range []int{1, 2} {
		checkNoLeak(t, 20, func(int) {
			e := NewEngine()
			e.Shards, e.Lookahead = shards, 1000
			var unwound []int
			err := e.Run(8, func(p *Proc) {
				if p.ID() < 4 { // shard 0 at either count: appends never race
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
				t.Fatalf("%d shards: err = %v, want the Goexit of rank 3", shards, err)
			}
			if got := fmt.Sprint(unwound); got != "[3 0 1 2]" {
				t.Fatalf("%d shards: unwind order %s, want [3 0 1 2]", shards, got)
			}
		})
	}
}

// TestHandlerPanicIsAnError: a panic in an event handler running under
// the dispatcher ends the run with an error instead of killing the
// process from the shard's worker goroutine.
func TestHandlerPanicIsAnError(t *testing.T) {
	checkNoLeak(t, 5, func(int) {
		e := NewEngine()
		err := e.Run(2, func(p *Proc) {
			if p.ID() == 0 {
				e.At(5, func() { panic("bad handler") })
			}
			p.Park("waiting")
		})
		if err == nil || !strings.Contains(err.Error(), "bad handler") {
			t.Fatalf("err = %v, want the handler panic", err)
		}
	})
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

// parallelEngine builds a 4-shard engine for the abnormal-end tests.
func parallelEngine() *Engine {
	e := NewEngine()
	e.Shards = 4
	e.Lookahead = 1000
	return e
}

// TestParallelDrainOnPanic: a rank panic on one shard drains every
// blocked coroutine on every shard — deterministically, without
// leaking goroutines — before Run returns.
func TestParallelDrainOnPanic(t *testing.T) {
	checkNoLeak(t, 20, func(iter int) {
		err := parallelEngine().Run(16, func(p *Proc) {
			if p.ID() == 5 {
				p.Elapse(10)
				panic("kaboom")
			}
			p.Park("victim")
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("iter %d: want panic error, got %v", iter, err)
		}
	})
}

// TestParallelDeadlock: all ranks parked with no events anywhere is a
// global deadlock, reported with the full waiting set and drained
// cleanly.
func TestParallelDeadlock(t *testing.T) {
	checkNoLeak(t, 20, func(iter int) {
		err := parallelEngine().Run(16, func(p *Proc) {
			p.Park("forever")
		})
		var d *Deadlock
		if !errors.As(err, &d) {
			t.Fatalf("iter %d: want *Deadlock, got %v", iter, err)
		}
		if len(d.Waiting) != 16 {
			t.Fatalf("iter %d: want 16 waiting ranks, got %d", iter, len(d.Waiting))
		}
	})
}

// TestParallelMaxTime: the virtual-time watchdog fires under sharded
// execution and drains all shards.
func TestParallelMaxTime(t *testing.T) {
	checkNoLeak(t, 20, func(iter int) {
		e := parallelEngine()
		e.MaxTime = 5000
		err := e.Run(16, func(p *Proc) {
			for {
				p.Elapse(300)
			}
		})
		var tl *ErrTimeLimit
		if !errors.As(err, &tl) {
			t.Fatalf("iter %d: want *ErrTimeLimit, got %v", iter, err)
		}
	})
}
