package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestParallelLookaheadViolation: a cross-shard event scheduled closer
// than the window bound is a workload bug and must surface as a run
// error naming the violation.
func TestParallelLookaheadViolation(t *testing.T) {
	e := NewEngine()
	e.Shards = 2
	e.Lookahead = 1000
	err := e.Run(4, func(p *Proc) {
		if p.ID() == 0 {
			e.AtRank(p.Now()+1, 0, 3, func() {})
		}
		p.Elapse(10)
	})
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("want lookahead violation error, got %v", err)
	}
}

// TestParallelConfigErrors: invalid shard configurations fail fast
// with descriptive errors instead of racing or hanging.
func TestParallelConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		config     func(e *Engine)
	}{
		{"missing lookahead", "Lookahead", func(e *Engine) { e.Lookahead = 0 }},
		{"bad partition length", "Partition", func(e *Engine) { e.Partition = []int{0, 1} }},
		{"partition out of range", "Partition", func(e *Engine) { e.Partition = []int{0, 1, 2, 0} }},
		{"racy single observer", "ShardObservers", func(e *Engine) { e.Observe(&tracer{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.Shards = 2
			e.Lookahead = 10
			tc.config(e)
			if err := e.Run(4, func(*Proc) {}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %s error, got %v", tc.want, err)
			}
		})
	}
}

// TestParallelShardOf covers the default contiguous partition and the
// explicit override.
func TestParallelShardOf(t *testing.T) {
	e := NewEngine()
	e.Shards = 4
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if got := e.ShardOf(i, len(want)); got != w {
			t.Errorf("ShardOf(%d) = %d, want %d", i, got, w)
		}
	}
	e.Partition = []int{3, 2, 1, 0}
	for i, w := range e.Partition {
		if got := e.ShardOf(i, 4); got != w {
			t.Errorf("explicit ShardOf(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestEngineLevelCallsNeedOneShard: Now and At have no meaning across
// shards and say so.
func TestEngineLevelCallsNeedOneShard(t *testing.T) {
	e := NewEngine()
	e.Shards = 2
	e.Lookahead = 10
	err := e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			e.Now()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "multi-shard") {
		t.Fatalf("want a multi-shard usage panic as the run error, got %v", err)
	}
}

// TestWarmParkResumeAllocatesNothing pins the hand-off: once a rank's
// coroutine exists, a park -> dispatcher -> resume cycle (the parked
// Elapse path) allocates nothing.
func TestWarmParkResumeAllocatesNothing(t *testing.T) {
	e := NewEngine()
	e.noInlineElapse = true
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
	// The engine itself (shards, slab, FIFO, channels, the Deadlock
	// report and its map) is a per-run constant, measured with a
	// one-rank run and subtracted.
	fixed := testing.AllocsPerRun(20, func() { NewEngine().Run(1, func(p *Proc) { p.Park("x") }) })
	if perRank := (perRun - fixed) / (n - 1); perRank > budget {
		t.Errorf("starting a rank allocates %.1f objects, budget %d", perRank, budget)
	}
}

// BenchmarkParallelShards drives the shard-confined workload across
// shard counts; under -race in CI this is the sharded-engine smoke.
func BenchmarkParallelShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				e.Shards = shards
				e.Lookahead = 4000
				if err := e.Run(64, confinedBody(e, 64, 8, 4000)); err != nil {
					b.Fatal(err)
				}
			}
		})
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
			e.noInlineElapse = mode.noInline
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
