package ga

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// lendArray creates a 64-element array over every rank with element i
// holding i+1, so any patch of it spans several owners.
func lendArray(t *testing.T, e *Env) *Array {
	t.Helper()
	a, err := e.Create("lend", F64, []int{64})
	must(t, err)
	if e.Me() == 0 {
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		must(t, a.Put([]int{0}, []int{63}, vals))
	}
	e.Sync()
	return a
}

// A get lands in the caller's slice itself: the scratch region, which
// the runtime addresses, is lent that slice, so the region's own
// backing — poisoned here — is never written.
func TestGetLandsInCallerBuffer(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a := lendArray(t, e)
		if e.Me() == 1 {
			e.scratch(64 * elemBytes)
			own := e.scratchBytes(64 * elemBytes)
			for i := range own {
				own[i] = 0xAB
			}
			got := make([]float64, 60)
			must(t, a.Get([]int{2}, []int{61}, got))
			for i, v := range got {
				if v != float64(i+3) {
					t.Fatalf("got[%d] = %v, want %d", i, v, i+3)
				}
			}
			for i, x := range e.scratchBytes(64 * elemBytes) {
				if x != 0xAB {
					t.Fatalf("scratch byte %d = %#x: the get went through the scratch backing", i, x)
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

// A put or accumulate has read the caller's slice by the time it
// returns (ARMCI local completion, which lending relies on): writing
// the slice straight after the call leaves the array unchanged.
func TestPutAccDoneWithCallerBufferOnReturn(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a := lendArray(t, e)
		if e.Me() == 3 {
			vals := make([]float64, 40)
			for i := range vals {
				vals[i] = 100
			}
			must(t, a.Put([]int{10}, []int{49}, vals))
			for i := range vals {
				vals[i] = 0.5
			}
			must(t, a.Acc([]int{10}, []int{49}, vals, 2))
			for i := range vals {
				vals[i] = -1
			}
		}
		e.Sync()
		if e.Me() == 0 {
			got := make([]float64, 64)
			must(t, a.Get([]int{0}, []int{63}, got))
			for i, v := range got {
				want := float64(i + 1)
				if i >= 10 && i <= 49 {
					want = 101
				}
				if v != want {
					t.Fatalf("element %d = %v, want %v", i, v, want)
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

// Lending ends with the transfer: the scratch region's backing is
// nil after transfers on a rank that never touched it, and the same
// slice after transfers on one that did.
func TestTransferRestoresScratchBacking(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a := lendArray(t, e)
		if e.Me() == 2 {
			buf := make([]float64, 30)
			must(t, a.Get([]int{5}, []int{34}, buf))
			must(t, a.Acc([]int{5}, []int{34}, buf, 0))
			if d := e.scratchReg.Data; d != nil {
				t.Errorf("untouched scratch region left with a %d-byte backing", len(d))
			}
			own := e.scratchBytes(8)
			before := e.scratchReg.Data
			must(t, a.Put([]int{5}, []int{34}, buf))
			must(t, a.Get([]int{5}, []int{34}, buf))
			if after := e.scratchReg.Data; len(after) != len(before) || &after[0] != &before[0] || &own[0] != &before[0] {
				t.Errorf("scratch backing changed across transfers: %d bytes before, %d after", len(before), len(after))
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

// A job stopped by MaxTime while a rank is parked inside Get unwinds
// that rank through transfer's deferred restore before the machine
// retires, so the free list is never handed the caller's slice.
func TestStoppedGetNeverFreesCallerBuffer(t *testing.T) {
	forVariants(t, 4, func(t *testing.T, j *harness.Job) {
		var lent []byte
		fabric.BufHook = func(b []byte, put bool) {
			if put && lent != nil && &b[0] == &lent[0] {
				t.Error("the caller's Get buffer was handed to PutBuf")
			}
		}
		defer func() { fabric.BufHook = nil }()
		var e0 *Env
		returned := false
		err := j.Eng.Run(4, func(p *sim.Proc) {
			e := NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
			a := lendArray(t, e)
			if e.Me() == 0 {
				e0 = e
				vals := make([]float64, 64)
				lent = mpi.Bytes(vals)
				j.Eng.MaxTime = p.Now() + 1
				_ = a.Get([]int{0}, []int{63}, vals)
				returned = true
			}
			e.Sync()
		})
		var limit *sim.ErrTimeLimit
		if !errors.As(err, &limit) {
			t.Fatalf("run ended with %v, want the time limit", err)
		}
		if returned {
			t.Fatal("Get returned past MaxTime: nothing was parked inside it")
		}
		if d := e0.scratchReg.Data; d != nil {
			t.Errorf("unwound Get left the scratch region with a %d-byte backing", len(d))
		}
		j.M.Retire()
	})
}
