package bench

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
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
// After a job fails no index above it is run; jobs already running
// finish. Every index below a failed one had been drawn before it, so
// the error returned — the one with the lowest index — is the one a
// sequential loop would have stopped at, whatever the worker count. A
// job that panics is reported the same way, as an error carrying the
// job's index and stack, so one bad job of a panel cannot take the
// process down from a goroutine nobody can recover.
//
// What jobs may share is the caller's contract: see "Figure sweeps" in
// DESIGN.md for the one Fig6 and runTable rely on.
func sweep(workers, n int, job func(i int) error) error {
	var next atomic.Int64
	return work(workers, n,
		func(int, int) int { return int(next.Add(1)) - 1 },
		func(i, _ int) error { return job(i) })
}

// chainSweep is sweep with a fixed assignment instead of a shared
// counter: with W = min(workers, n) workers, worker w runs jobs w,
// w+W, w+2W, … in that order, each on the worker's own free list
// (fabric.FreeList). Which jobs ran on a list before a given one is
// therefore fixed, and so is every buffer the job finds there or has to
// make, where under sweep it depends on which job finished first. The
// price is balance: a worker whose chain is longer cannot hand work to
// an idle one, so the caller orders its jobs to make the chains even.
// The lists come from the stash and go back to it when the sweep
// returns, worker 0's last, so that in the next chainSweep worker w
// takes back the list it handed in. Failures and panics are as in
// sweep: every index below the lowest failed one runs.
func chainSweep(workers, n int, job func(i int, fl *fabric.FreeList) error) error {
	lists := make([]*fabric.FreeList, min(max(workers, 1), n))
	for w := range lists {
		lists[w] = fabric.NewFreeList()
	}
	defer func() {
		for _, fl := range slices.Backward(lists) {
			fl.Close()
		}
	}()
	return work(len(lists), n,
		func(w, k int) int { return w + k*len(lists) },
		func(i, w int) error { return job(i, lists[w]) })
}

// work runs min(workers, n) workers; worker w's k-th job is index
// pick(w, k), which must rise with k, and it stops at the first index
// at or past n or past the lowest index that has failed.
func work(workers, n int, pick func(w, k int) int, job func(i, w int) error) error {
	errs := make([]error, n)
	var failed atomic.Int64 // lowest failed index, n while none has
	failed.Store(int64(n))
	var wg sync.WaitGroup
	for w := range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				i := pick(w, k)
				if i >= n || int64(i) > failed.Load() {
					return
				}
				if errs[i] = runJob(i, func() error { return job(i, w) }); errs[i] == nil {
					continue
				}
				for f := failed.Load(); int64(i) < f; f = failed.Load() {
					if failed.CompareAndSwap(f, int64(i)) {
						break
					}
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

// runJob is job i with a panic turned into an error.
func runJob(i int, job func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: sweep job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return job()
}
