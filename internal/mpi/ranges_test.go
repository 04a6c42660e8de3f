package mpi

import (
	"math/rand"
	"testing"
)

// TestRangeSetMatchesLinearScan holds the index to the rule it replaces:
// for random mixes of kinds, ops and (overlapping, unordered) ranges,
// rangeSet.conflicts answers exactly what scanning every earlier range
// with rng.conflicts does — before and after a reset.
func TestRangeSetMatchesLinearScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	kinds := []opKind{opGet, opPut, opAcc, opFetchOp, opCAS}
	ops := []Op{OpSum, OpMax, OpReplace}
	var s rangeSet
	for trial := 0; trial < 200; trial++ {
		s.reset()
		var all []rng
		for i := 0; i < 40; i++ {
			lo := rnd.Intn(200)
			r := rng{lo: lo, hi: lo + rnd.Intn(24), kind: kinds[rnd.Intn(len(kinds))], op: ops[rnd.Intn(len(ops))]}
			want := false
			for _, old := range all {
				if old.conflicts(r) {
					want = true
					break
				}
			}
			if got := s.conflicts(r); got != want {
				t.Fatalf("trial %d: %+v against %v: index says %v, scan says %v", trial, r, all, got, want)
			}
			all = append(all, r)
			s.add(r)
		}
	}
}
