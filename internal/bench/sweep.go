package bench

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// sweep calls job(0) … job(n-1) on min(workers, n) workers (at least
// one) that draw the next index from one shared counter — the proxy's
// own NXTVAL scheme, one level up — and returns once every worker has
// exited. The caller chooses the count.
// Indices are handed out in ascending order, so a caller that wants its
// longest jobs started first puts them at the front; a job publishes
// its result by writing the slot of a caller-owned slice that belongs
// to its index, which is what keeps the output independent of
// completion order.
//
// After a job fails no further index is handed out; jobs already
// running finish. Every index below a failed one had been drawn before
// it, so the error returned — the one with the lowest index — is the
// one a sequential loop would have stopped at, whatever the worker
// count. A job that panics is reported the same way, as an error
// carrying the job's index and stack, so one bad job of a panel cannot
// take the process down from a goroutine nobody can recover.
//
// What jobs may share is the caller's contract: see "Figure sweeps" in
// DESIGN.md for the one Fig6 and runTable rely on.
func sweep(workers, n int, job func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = runJob(i, job); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob is job(i) with a panic turned into an error.
func runJob(i int, job func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: sweep job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return job(i)
}
