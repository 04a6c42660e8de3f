package mpi

// rangeSet holds the target ranges of one epoch, indexed so that
// "does r conflict with any of them" costs O(log n) — O(1) for the
// disjoint, ascending ranges plans issue — instead of a scan of every
// earlier range. Two ranges conflict when they overlap unless both only
// read, or both belong to the accumulate family with the same op
// (rng.conflicts), so the set keeps one overlap index per class a range
// can be compatible with: reads, puts, and accumulates per op. Its
// slices are reused when the epoch record is reopened.
type rangeSet struct {
	reads, puts rangeIndex
	accs        []accIndex
}

// accIndex is the accumulate family's ranges with one reduction op.
type accIndex struct {
	op Op
	rangeIndex
}

func (s *rangeSet) reset() {
	s.reads.reset()
	s.puts.reset()
	for i := range s.accs {
		s.accs[i].reset()
	}
}

// conflicts reports whether r conflicts with a range in the set.
func (s *rangeSet) conflicts(r rng) bool {
	if r.kind.writes() && s.reads.overlaps(r.lo, r.hi) {
		return true
	}
	if s.puts.overlaps(r.lo, r.hi) {
		return true
	}
	for i := range s.accs {
		a := &s.accs[i]
		if !(r.kind.accumulates() && a.op == r.op) && a.overlaps(r.lo, r.hi) {
			return true
		}
	}
	return false
}

// add records r.
func (s *rangeSet) add(r rng) {
	switch {
	case !r.kind.writes():
		s.reads.insert(r.lo, r.hi)
	case !r.kind.accumulates():
		s.puts.insert(r.lo, r.hi)
	default:
		for i := range s.accs {
			if s.accs[i].op == r.op {
				s.accs[i].insert(r.lo, r.hi)
				return
			}
		}
		s.accs = append(s.accs, accIndex{op: r.op})
		s.accs[len(s.accs)-1].insert(r.lo, r.hi)
	}
}

// rangeIndex is a set of [lo,hi) ranges sorted by lo, with the running
// maximum of hi: some range overlaps [lo,hi) exactly when, among the
// ranges that start before hi, the largest end lies past lo.
type rangeIndex struct {
	spans []span // ascending lo
	maxHi []int  // maxHi[i] is the largest hi of spans[:i+1]
}

type span struct{ lo, hi int }

func (x *rangeIndex) reset() { x.spans, x.maxHi = x.spans[:0], x.maxHi[:0] }

// before returns how many spans start before hi.
func (x *rangeIndex) before(hi int) int {
	n := len(x.spans)
	if n == 0 || x.spans[n-1].lo < hi {
		return n // the ascending case: everything starts before hi
	}
	lo, up := 0, n
	for lo < up {
		m := int(uint(lo+up) >> 1)
		if x.spans[m].lo < hi {
			lo = m + 1
		} else {
			up = m
		}
	}
	return lo
}

func (x *rangeIndex) overlaps(lo, hi int) bool {
	k := x.before(hi)
	return k > 0 && x.maxHi[k-1] > lo
}

func (x *rangeIndex) insert(lo, hi int) {
	i := x.before(lo + 1) // after every span starting at or before lo
	x.spans = append(x.spans, span{})
	x.maxHi = append(x.maxHi, 0)
	copy(x.spans[i+1:], x.spans[i:])
	x.spans[i] = span{lo, hi}
	for ; i < len(x.spans); i++ {
		m := x.spans[i].hi
		if i > 0 {
			m = max(m, x.maxHi[i-1])
		}
		x.maxHi[i] = m
	}
}
