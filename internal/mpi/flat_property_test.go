package mpi

import (
	"math/rand"
	"testing"
)

// collectSegs enumerates a type through the closure path.
func collectSegs(t Datatype) []Segment {
	var segs []Segment
	t.Segments(func(off, n int) {
		segs = append(segs, Segment{Off: off, N: n})
	})
	return segs
}

// checkFlatMatches asserts that Flatten(dt) is observationally
// identical to the closure enumeration: same segments in the same
// order, and aggregate properties consistent with both the segments and
// the type's own accessors.
func checkFlatMatches(t *testing.T, dt Datatype) {
	t.Helper()
	want := collectSegs(dt)
	f := Flatten(dt)
	if len(f.Segs) != len(want) {
		t.Fatalf("%v: flat has %d segs, closure path %d", dt, len(f.Segs), len(want))
	}
	size, span := 0, 0
	for i, s := range want {
		if f.Segs[i] != s {
			t.Fatalf("%v: seg %d = %+v, closure path %+v", dt, i, f.Segs[i], s)
		}
		size += s.N
		if s.Off+s.N > span {
			span = s.Off + s.N
		}
	}
	if f.Size() != size || f.Size() != dt.Size() {
		t.Errorf("%v: flat size %d, segments sum %d, type %d", dt, f.Size(), size, dt.Size())
	}
	if f.Span() != span {
		t.Errorf("%v: flat span %d, segments span %d", dt, f.Span(), span)
	}
	if dt.Span() < span {
		t.Errorf("%v: type span %d below last touched byte %d", dt, dt.Span(), span)
	}
	if f.NumSegs() != dt.NumSegs() {
		t.Errorf("%v: flat NumSegs %d, type %d", dt, f.NumSegs(), dt.NumSegs())
	}
	// The memo must be stable: a second Flatten returns the same object
	// for caching types and an equal value otherwise.
	g := Flatten(dt)
	if len(g.Segs) != len(f.Segs) {
		t.Fatalf("%v: repeated Flatten changed seg count %d -> %d", dt, len(f.Segs), len(g.Segs))
	}
	for i := range f.Segs {
		if g.Segs[i] != f.Segs[i] {
			t.Fatalf("%v: repeated Flatten changed seg %d", dt, i)
		}
	}
}

// randomType builds one random datatype, deliberately including
// degenerate shapes: zero counts, zero block lengths, stride ==
// blocklen (collapses to contiguous), empty indexed lists, and
// subarrays that are dense in memory.
func randomType(rng *rand.Rand) Datatype {
	switch rng.Intn(4) {
	case 0:
		return TypeContiguous(rng.Intn(256))
	case 1:
		count := rng.Intn(16)
		blocklen := rng.Intn(32)
		stride := blocklen + rng.Intn(32) // >= blocklen, == sometimes
		return TypeVector(count, blocklen, stride)
	case 2:
		n := rng.Intn(12)
		offs := make([]int, n)
		lens := make([]int, n)
		next := 0
		for i := 0; i < n; i++ {
			next += rng.Intn(8) // 0 keeps runs adjacent (collapsible)
			offs[i] = next
			lens[i] = rng.Intn(16) // 0-length blocks allowed
			next += lens[i]
		}
		return TypeIndexed(offs, lens)
	default:
		nd := 1 + rng.Intn(3)
		sizes := make([]int, nd)
		subsizes := make([]int, nd)
		starts := make([]int, nd)
		for d := 0; d < nd; d++ {
			sizes[d] = 1 + rng.Intn(8)
			subsizes[d] = rng.Intn(sizes[d] + 1) // may be 0 or the full dim
			if subsizes[d] < sizes[d] {
				starts[d] = rng.Intn(sizes[d] - subsizes[d] + 1)
			}
		}
		return TypeSubarray(sizes, subsizes, starts, 1+rng.Intn(8))
	}
}

// TestFlattenMatchesClosurePathRandom is the flatten-cache property
// test: for a large sample of random datatypes (including zero-length
// and collapsed-to-contiguous shapes), the cached flat form must be
// observationally identical to the closure enumeration path.
func TestFlattenMatchesClosurePathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42)) // deterministic corpus
	for i := 0; i < 2000; i++ {
		checkFlatMatches(t, randomType(rng))
	}
}

// TestFlattenDegenerateShapes nails the specific edge cases by hand.
func TestFlattenDegenerateShapes(t *testing.T) {
	cases := []Datatype{
		TypeContiguous(0),
		TypeContiguous(1),
		TypeVector(0, 8, 16),                                   // zero count -> empty contig
		TypeVector(4, 0, 16),                                   // zero blocklen -> empty contig
		TypeVector(4, 8, 8),                                    // stride == blocklen -> contig
		TypeVector(1, 8, 64),                                   // single block -> contig
		TypeIndexed(nil, nil),                                  // empty lists
		TypeIndexed([]int{0}, []int{0}),                        // single zero-length block
		TypeIndexed([]int{0, 8}, []int{8, 8}),                  // adjacent -> contig
		TypeIndexed([]int{8, 0}, []int{4, 4}),                  // unsorted runs
		TypeIndexed([]int{0, 16, 8}, []int{4, 4, 4}),           // interleaved order
		TypeSubarray([]int{4, 4}, []int{4, 4}, []int{0, 0}, 8), // full array
		TypeSubarray([]int{4, 4}, []int{0, 4}, []int{0, 0}, 8), // empty
		TypeSubarray([]int{4, 4}, []int{2, 4}, []int{1, 0}, 8), // dense rows
		TypeSubarray([]int{4, 4}, []int{2, 2}, []int{1, 1}, 8), // strided
		TypeSubarray([]int{3, 3, 3}, []int{2, 2, 2}, []int{1, 1, 1}, 4),
	}
	for _, dt := range cases {
		checkFlatMatches(t, dt)
	}
}

// TestPackUnpackMatchesFlat checks the copy kernels against a manual
// closure-path pack for random types: PackInto must gather exactly the
// bytes the closure enumeration would, and Unpack must scatter them
// back to the same places.
func TestPackUnpackMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		dt := randomType(rng)
		span := dt.Span()
		src := make([]byte, span)
		rng.Read(src)

		// Closure-path gather.
		var want []byte
		dt.Segments(func(off, n int) {
			want = append(want, src[off:off+n]...)
		})

		got := make([]byte, dt.Size())
		PackInto(got, dt, src)
		if len(got) != dt.Size() {
			t.Fatalf("%v: packed %d bytes, want %d", dt, len(got), dt.Size())
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%v: packed byte %d = %d, closure path %d", dt, j, got[j], want[j])
			}
		}

		// Scatter back into a fresh buffer and compare the touched bytes.
		dst := make([]byte, span)
		Unpack(dt, dst, got)
		dt.Segments(func(off, n int) {
			for j := off; j < off+n; j++ {
				if dst[j] != src[j] {
					t.Fatalf("%v: unpacked byte %d = %d, want %d", dt, j, dst[j], src[j])
				}
			}
		})
	}
}
