// Package spans indexes half-open [lo, hi) spans for mpi's epoch conflicts, armci's SectionV.B
// translation table and fabric's regions, and is armcimpi's SectionVI.B IOV conflict check.
package spans

import (
	"cmp"
	"iter"
	"slices"
	"sort"
)

// Span is a stored [Lo, Hi) with its value, which leads so a zero-size V adds no padding.
type Span[V any] struct {
	V      V
	Lo, Hi int64
}

// Index is a set of spans sorted by Lo; ascending inserts append in O(1). The zero value is empty.
type Index[V any] struct{ e []entry[V] }

// entry is a span with maxHi, the largest Hi of the entries up to and including it.
type entry[V any] struct {
	Span[V]
	maxHi int64
}

// Len counts the stored spans; Reset empties the index and keeps its backing.
func (x *Index[V]) Len() int { return len(x.e) }
func (x *Index[V]) Reset()   { x.e = x.e[:0] }

func (x *Index[V]) countStartingBefore(hi int64) int {
	if n := len(x.e); n == 0 || x.e[n-1].Lo < hi {
		return n // the ascending case: everything starts before hi
	}
	return sort.Search(len(x.e), func(i int) bool { return x.e[i].Lo >= hi })
}

// Insert adds [lo, hi) with value v after any span starting at lo.
func (x *Index[V]) Insert(lo, hi int64, v V) {
	i := x.countStartingBefore(lo + 1)
	x.e = append(x.e, entry[V]{})
	copy(x.e[i+1:], x.e[i:])
	x.e[i] = entry[V]{Span: Span[V]{v, lo, hi}}
	x.fix(i)
}

// Remove deletes the first span starting at lo and returns its value.
func (x *Index[V]) Remove(lo int64) (v V, ok bool) {
	if i := x.countStartingBefore(lo); i < len(x.e) && x.e[i].Lo == lo {
		v = x.e[i].V
		x.e = slices.Delete(x.e, i, i+1)
		x.fix(i)
		return v, true
	}
	return v, false
}

// fix recomputes the running maxima from entry i until they stop changing.
func (x *Index[V]) fix(i int) {
	for j := i; j < len(x.e); j++ {
		m := x.e[j].Hi
		if j > 0 {
			m = max(m, x.e[j-1].maxHi)
		}
		if j > i && m == x.e[j].maxHi {
			return
		}
		x.e[j].maxHi = m
	}
}

// Overlaps reports whether some stored span has Lo < hi and Hi > lo: whether maxHi > lo
// at the last span that starts before hi.
func (x *Index[V]) Overlaps(lo, hi int64) bool {
	k := x.countStartingBefore(hi)
	return k > 0 && x.e[k-1].maxHi > lo
}

// At returns a stored span containing p (Lo <= p < Hi), if any: the first whose running
// maximum passes p, unless it starts after p, and then so do all later ones.
func (x *Index[V]) At(p int64) (s Span[V], ok bool) {
	i := sort.Search(len(x.e), func(i int) bool { return x.e[i].maxHi > p })
	if ok = i < len(x.e) && x.e[i].Lo <= p; ok {
		s = x.e[i].Span
	}
	return s, ok
}

// All yields the stored spans in ascending Lo.
func (x *Index[V]) All() iter.Seq[Span[V]] {
	return func(yield func(Span[V]) bool) {
		for _, e := range x.e {
			if !yield(e.Span) {
				return
			}
		}
	}
}

// Disjoint reports whether the spans in s are non-empty and pairwise disjoint, sorting s
// by Lo: O(n) if it is sorted (pdqsort's sorted-input path), else O(n log n).
func Disjoint[V any](s []Span[V]) bool {
	slices.SortFunc(s, func(a, b Span[V]) int { return cmp.Compare(a.Lo, b.Lo) })
	for i, sp := range s {
		if sp.Lo >= sp.Hi || i > 0 && sp.Lo < s[i-1].Hi {
			return false
		}
	}
	return true
}
