package bench

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
)

// atProcs runs body as a subtest at each worker-thread count the CI
// matrix uses.
func atProcs(t *testing.T, body func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t, procs)
		})
	}
}

func TestSweepRunsEveryIndexOnce(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, procs - 1, procs, 57} { // none, fewer than, as many as, more than the workers
			ran := make([]atomic.Int32, n)
			if err := sweep(procs, n, func(i int) error { ran[i].Add(1); return nil }); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Errorf("n=%d: job %d ran %d times", n, i, c)
				}
			}
		}
	})
}

// Jobs that finish in reverse still leave their results in index order:
// job i returns only after job i+1 has, so the last index finishes
// first.
func TestSweepResultsInIndexOrder(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		n := procs // every job holds a worker, so n may not exceed them
		done := make([]chan struct{}, n+1)
		for i := range done {
			done[i] = make(chan struct{})
		}
		close(done[n])
		var mu sync.Mutex
		var finished []int
		out := make([]int, n)
		err := sweep(procs, n, func(i int) error {
			<-done[i+1]
			out[i] = i * i
			mu.Lock()
			finished = append(finished, i)
			mu.Unlock()
			close(done[i])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Errorf("out[%d] = %d, want %d", i, out[i], i*i)
			}
			if finished[i] != n-1-i {
				t.Fatalf("completion order %v, want descending", finished)
			}
		}
	})
}

func TestSweepLowestIndexErrorWins(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		// Job 5 fails only once job 6 (which also fails) has returned, so
		// wherever there are workers to run both, the later error is the
		// first to be recorded and must still lose.
		six := make(chan struct{})
		err := sweep(procs, 40, func(i int) error {
			switch i {
			case 5:
				if procs > 1 {
					<-six
				}
				return errors.New("job 5 failed")
			case 6:
				defer close(six)
				return errors.New("job 6 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "job 5 failed" {
			t.Fatalf("err = %v, want job 5's", err)
		}
	})
}

// No index is handed out once a failure is recorded. With one worker
// that is exact; with more, the jobs behind the failing one hold their
// workers until it has returned, after which each worker can start at
// most the one job it had drawn — far from all thousand.
func TestSweepStopsAfterFailure(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		const n, bad = 1000, 5
		var started atomic.Int32
		returned := make(chan struct{})
		err := sweep(procs, n, func(i int) error {
			started.Add(1)
			if i == bad {
				defer close(returned)
				return errors.New("failed")
			}
			if i > bad {
				<-returned
			}
			return nil
		})
		if err == nil {
			t.Fatal("want the job's error")
		}
		got := int(started.Load())
		if procs == 1 && got != bad+1 {
			t.Errorf("one worker started %d jobs, want exactly %d", got, bad+1)
		}
		if got >= n/2 {
			t.Errorf("%d of %d jobs started after job %d failed", got, n, bad)
		}
	})
}

func TestSweepPanicIsAnError(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		err := sweep(procs, 6, func(i int) error {
			if i == 3 {
				var m map[string]int
				m["boom"] = 1
			}
			return nil
		})
		if err == nil {
			t.Fatal("a panicking job must fail the sweep")
		}
		for _, want := range []string{"job 3", "assignment to entry in nil map", "sweep_test.go"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not mention %q:\n%v", want, err)
			}
		}
	})
}

func TestSweepReturnsTheJobsError(t *testing.T) {
	sentinel := errors.New("sentinel")
	if err := sweep(runtime.GOMAXPROCS(0), 3, func(i int) error { return sentinel }); err != sentinel {
		t.Errorf("err = %v, want the job's own error value", err)
	}
}

// chainSweep's assignment is fixed: worker w runs jobs w, w+W, … in
// that order on one free list of its own, W = min(workers, n), whatever
// the jobs' durations.
func TestSweepChainsAreFixed(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, procs - 1, procs, 57} {
			var mu sync.Mutex
			ran := map[*fabric.FreeList][]int{}
			err := chainSweep(procs, n, func(i int, fl *fabric.FreeList) error {
				time.Sleep(time.Duration((i*7919)%5) * 100 * time.Microsecond)
				mu.Lock()
				ran[fl] = append(ran[fl], i)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			w := min(procs, n)
			if len(ran) != w {
				t.Fatalf("n=%d: jobs ran on %d free lists, want %d", n, len(ran), w)
			}
			for _, chain := range ran {
				var want []int
				for i := chain[0]; i < n; i += w {
					want = append(want, i)
				}
				if chain[0] >= w || !slices.Equal(chain, want) {
					t.Fatalf("n=%d: a free list ran jobs %v, want %v", n, chain, want)
				}
			}
		}
	})
}

// A failure stops each chain at the first job past the failed index:
// every job below it still runs, so the lowest-index error is the one
// a sequential loop would have stopped at.
func TestSweepChainRunsEveryJobBelowAFailure(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		const n = 40
		six := make(chan struct{})
		var ran [n]atomic.Int32
		err := chainSweep(procs, n, func(i int, _ *fabric.FreeList) error {
			ran[i].Add(1)
			switch i {
			case 5:
				if procs > 1 {
					<-six
				}
				return errors.New("job 5 failed")
			case 6:
				defer close(six)
				return errors.New("job 6 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "job 5 failed" {
			t.Fatalf("err = %v, want job 5's", err)
		}
		for i := range 5 {
			if ran[i].Load() != 1 {
				t.Errorf("job %d ran %d times, want once", i, ran[i].Load())
			}
		}
		// The chains of jobs 5 and 6 are held until both have failed;
		// with one worker, job 6 is the next job of job 5's chain.
		for _, i := range []int{5 + procs, 6 + procs} {
			if ran[i].Load() != 0 {
				t.Errorf("job %d ran after jobs 5 and 6 failed on its chain", i)
			}
		}
	})
}
