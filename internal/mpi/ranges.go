package mpi

import "repro/internal/spans"

// rangeSet holds the target ranges of one epoch, indexed so that
// "does r conflict with any of them" costs O(log n) — O(1) for the
// disjoint, ascending ranges plans issue — instead of a scan of every
// earlier range. Two ranges conflict when they overlap unless both only
// read, or both belong to the accumulate family with the same op
// (rng.conflicts), so the set keeps one overlap index per class a range
// can be compatible with: reads, puts, and accumulates per op. Its
// indexes are reused when the epoch record is reopened.
type rangeSet struct {
	reads, puts spans.Index[struct{}]
	accs        []accIndex
}

// accIndex is the accumulate family's ranges with one reduction op.
type accIndex struct {
	op Op
	spans.Index[struct{}]
}

func (s *rangeSet) reset() {
	s.reads.Reset()
	s.puts.Reset()
	for i := range s.accs {
		s.accs[i].Reset()
	}
}

// conflicts reports whether r conflicts with a range in the set.
func (s *rangeSet) conflicts(r rng) bool {
	lo, hi := int64(r.lo), int64(r.hi)
	if r.kind.writes() && s.reads.Overlaps(lo, hi) {
		return true
	}
	if s.puts.Overlaps(lo, hi) {
		return true
	}
	for i := range s.accs {
		a := &s.accs[i]
		if !(r.kind.accumulates() && a.op == r.op) && a.Overlaps(lo, hi) {
			return true
		}
	}
	return false
}

// add records r.
func (s *rangeSet) add(r rng) {
	lo, hi := int64(r.lo), int64(r.hi)
	switch {
	case !r.kind.writes():
		s.reads.Insert(lo, hi, struct{}{})
	case !r.kind.accumulates():
		s.puts.Insert(lo, hi, struct{}{})
	default:
		for i := range s.accs {
			if s.accs[i].op == r.op {
				s.accs[i].Insert(lo, hi, struct{}{})
				return
			}
		}
		s.accs = append(s.accs, accIndex{op: r.op})
		s.accs[len(s.accs)-1].Insert(lo, hi, struct{}{})
	}
}
