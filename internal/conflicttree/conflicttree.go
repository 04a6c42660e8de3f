// Package conflicttree is a shim over spans.Index for benchmark/'s conflicttree.insert_ns
// driver only; the benchmark-only change that retargets it to spans deletes this package.
package conflicttree

import "repro/internal/spans"

// Tree is a set of disjoint, non-empty half-open ranges [lo, hi).
type Tree struct{ x spans.Index[struct{}] }

// Insert adds [lo, hi) unless it is empty, inverted or overlaps a stored range.
func (t *Tree) Insert(lo, hi int64) bool {
	if lo >= hi || t.x.Overlaps(lo, hi) {
		return false
	}
	t.x.Insert(lo, hi, struct{}{})
	return true
}
