package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
