package conflicttree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/spans"
)

func TestInsertDisjoint(t *testing.T) {
	var tr Tree
	for _, r := range [][2]int64{{0, 10}, {10, 20}, {30, 40}, {20, 30}} {
		if !tr.Insert(r[0], r[1]) {
			t.Fatalf("disjoint insert [%d,%d) rejected", r[0], r[1])
		}
	}
	if tr.x.Len() != 4 {
		t.Errorf("size = %d", tr.x.Len())
	}
}

func TestInsertOverlapRejected(t *testing.T) {
	var tr Tree
	tr.Insert(10, 20)
	cases := [][2]int64{
		{10, 20},           // identical
		{5, 11},            // overlaps low end
		{19, 25},           // overlaps high end
		{12, 18},           // contained
		{5, 25},            // encloses
		{0, math.MaxInt64}, // encloses everything
	}
	for _, c := range cases {
		if tr.Insert(c[0], c[1]) {
			t.Errorf("overlapping insert [%d,%d) accepted", c[0], c[1])
		}
	}
	if tr.x.Len() != 1 {
		t.Errorf("failed inserts changed the tree: size = %d", tr.x.Len())
	}
}

func TestEmptyAndInvertedRangesRejected(t *testing.T) {
	var tr Tree
	if tr.Insert(5, 5) || tr.Insert(7, 3) {
		t.Error("degenerate ranges accepted")
	}
}

func TestAdjacentRangesAllowed(t *testing.T) {
	var tr Tree
	if !tr.Insert(0, 8) || !tr.Insert(8, 16) {
		t.Error("touching half-open ranges should not conflict")
	}
}

// TestConflictsQuery checks the overlap query without an insert, on the
// index under the tree: a gap and an empty range do not conflict.
func TestConflictsQuery(t *testing.T) {
	var x spans.Index[struct{}]
	x.Insert(100, 200, struct{}{})
	x.Insert(300, 400, struct{}{})
	if x.Overlaps(200, 300) {
		t.Error("gap reported as conflict")
	}
	if !x.Overlaps(150, 160) || !x.Overlaps(399, 500) {
		t.Error("overlap missed")
	}
	if x.Overlaps(50, 50) {
		t.Error("empty range conflicts")
	}
}

func TestPropertyMatchesNaiveChecker(t *testing.T) {
	// Property: the tree accepts exactly the ranges a naive O(N^2)
	// checker would accept, processed in the same order.
	type rg struct{ lo, hi int64 }
	check := func(seed int64, count uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(count%60) + 1
		var accepted []rg
		var tr Tree
		for i := 0; i < n; i++ {
			lo := int64(rnd.Intn(500))
			hi := lo + int64(rnd.Intn(30)) + 1
			naiveOK := true
			for _, a := range accepted {
				if lo < a.hi && a.lo < hi {
					naiveOK = false
					break
				}
			}
			treeOK := tr.Insert(lo, hi)
			if naiveOK != treeOK {
				return false
			}
			if naiveOK {
				accepted = append(accepted, rg{lo, hi})
			}
		}
		return tr.x.Len() == len(accepted)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
