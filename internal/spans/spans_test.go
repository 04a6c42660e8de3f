package spans

import (
	"cmp"
	"slices"
	"testing"
)

// model drives an Index and a plain list of the same spans side by side.
// The oracle is a linear scan of the list, which holds the live spans in
// insertion order; the index keeps spans with one start in that order
// too, so Remove(lo) takes the earliest-inserted span starting at lo.
type model struct {
	t    *testing.T
	x    Index[int]
	live []Span[int]
	id   int
}

// run decodes data as a stream of operations and applies them, checking
// the index against the oracle after each. Decoding never fails: a
// truncated stream just ends.
func (m *model) run(data []byte) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	for len(data) > 0 {
		switch next() % 5 {
		case 0: // insert, at negative starts too; one span in twelve is empty
			lo := next()%48 - 8
			m.id++
			s := Span[int]{Lo: lo, Hi: lo + next()%12, V: m.id}
			m.x.Insert(s.Lo, s.Hi, s.V)
			m.live = append(m.live, s)
		case 1: // remove at a live start (even byte) or anywhere (odd)
			b := next()
			lo := b/2%48 - 8
			if b%2 == 0 && len(m.live) > 0 {
				lo = m.live[b/2%int64(len(m.live))].Lo
			}
			m.remove(lo)
		case 2:
			m.at(next()%64 - 8)
		case 3:
			lo := next()%64 - 8
			m.overlaps(lo, lo+next()%16)
		default:
			m.x.Reset()
			m.live = m.live[:0]
		}
		m.all()
	}
}

func (m *model) remove(lo int64) {
	want := slices.IndexFunc(m.live, func(s Span[int]) bool { return s.Lo == lo })
	v, ok := m.x.Remove(lo)
	if ok != (want >= 0) || ok && v != m.live[want].V {
		m.t.Fatalf("Remove(%d) = %d, %v; the scan removes index %d of %v", lo, v, ok, want, m.live)
	}
	if ok {
		m.live = slices.Delete(m.live, want, want+1)
	}
}

func (m *model) at(p int64) {
	got, ok := m.x.At(p)
	want := slices.ContainsFunc(m.live, func(s Span[int]) bool { return s.Lo <= p && p < s.Hi })
	if ok != want || ok && !(slices.Contains(m.live, got) && got.Lo <= p && p < got.Hi) {
		m.t.Fatalf("At(%d) = %v, %v over %v", p, got, ok, m.live)
	}
}

func (m *model) overlaps(lo, hi int64) {
	want := slices.ContainsFunc(m.live, func(s Span[int]) bool { return s.Lo < hi && lo < s.Hi })
	if got := m.x.Overlaps(lo, hi); got != want {
		m.t.Fatalf("Overlaps(%d, %d) = %v, scan says %v over %v", lo, hi, got, want, m.live)
	}
}

// all checks Len and that All yields the live spans sorted by start,
// spans with one start in insertion order.
func (m *model) all() {
	want := slices.Clone(m.live)
	slices.SortStableFunc(want, func(a, b Span[int]) int { return cmp.Compare(a.Lo, b.Lo) })
	if got := slices.Collect(m.x.All()); m.x.Len() != len(want) || !slices.Equal(got, want) {
		m.t.Fatalf("Len %d, All %v; want %v", m.x.Len(), got, want)
	}
}

// FuzzIndex feeds model.run arbitrary operation streams. The seed corpus
// under testdata/fuzz/FuzzIndex (empty spans, equal starts, descending
// inserts, removing the middle entry, a running maximum that crosses
// zero) is replayed by plain `go test`.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 20, 4, 2, 12, 3, 8, 6})
	f.Fuzz(func(t *testing.T, data []byte) { (&model{t: t}).run(data) })
}

// FuzzDisjoint holds Disjoint to the pairwise O(N²) check: every span
// non-empty, no two overlapping. Each byte pair is a start and a length,
// so one span in eight is empty.
func FuzzDisjoint(f *testing.F) {
	f.Add([]byte{0, 4, 8, 4, 16, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s []Span[struct{}]
		for ; len(data) >= 2; data = data[2:] {
			lo := int64(data[0])
			s = append(s, Span[struct{}]{Lo: lo, Hi: lo + int64(data[1]%8)})
		}
		want := true
		for i, a := range s {
			want = want && a.Lo < a.Hi
			for _, b := range s[:i] {
				want = want && !(a.Lo < b.Hi && b.Lo < a.Hi)
			}
		}
		if got := Disjoint(slices.Clone(s)); got != want {
			t.Fatalf("Disjoint(%v) = %v, the pairwise scan says %v", s, got, want)
		}
	})
}

// scattered returns n disjoint 64-byte spans at stride 128 in the
// order i*7919 mod n visits them (n a power of two).
func scattered(n int) []Span[struct{}] {
	s := make([]Span[struct{}], n)
	for i := range s {
		lo := int64(i*7919%n) * 128
		s[i] = Span[struct{}]{Lo: lo, Hi: lo + 64}
	}
	return s
}

func benchInsert(b *testing.B, s []Span[struct{}]) {
	var x Index[struct{}]
	for i := 0; i < b.N; i++ {
		x.Reset()
		for _, sp := range s {
			x.Insert(sp.Lo, sp.Hi, sp.V)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)), "ns/insert")
}

func BenchmarkInsertAscending1024(b *testing.B) {
	s := scattered(1024)
	slices.SortFunc(s, func(a, b Span[struct{}]) int { return cmp.Compare(a.Lo, b.Lo) })
	benchInsert(b, s)
}

func BenchmarkInsertScattered65536(b *testing.B) { benchInsert(b, scattered(1<<16)) }

// benchDisjoint times Disjoint on a fresh copy of s per iteration (the
// copy is part of the time; Disjoint sorts its argument).
func benchDisjoint(b *testing.B, s []Span[struct{}]) {
	buf := make([]Span[struct{}], len(s))
	for i := 0; i < b.N; i++ {
		copy(buf, s)
		if !Disjoint(buf) {
			b.Fatal("disjoint spans reported as a conflict")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)), "ns/span")
}

func BenchmarkDisjointSorted1024(b *testing.B) {
	s := scattered(1024)
	slices.SortFunc(s, func(a, b Span[struct{}]) int { return cmp.Compare(a.Lo, b.Lo) })
	benchDisjoint(b, s)
}

func BenchmarkDisjointScattered65536(b *testing.B) { benchDisjoint(b, scattered(1<<16)) }
