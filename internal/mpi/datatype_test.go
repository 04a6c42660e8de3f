package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// collect returns the segment list of a datatype.
func collect(t Datatype) [][2]int {
	var segs [][2]int
	t.Segments(func(o, n int) { segs = append(segs, [2]int{o, n}) })
	return segs
}

// checkInvariants verifies Size/NumSegs/Extent against the segment list.
func checkInvariants(t *testing.T, dt Datatype) {
	t.Helper()
	segs := collect(dt)
	if len(segs) != dt.NumSegs() {
		t.Fatalf("%v: NumSegs=%d but Segments yielded %d", dt, dt.NumSegs(), len(segs))
	}
	size, hi := 0, 0
	for _, s := range segs {
		if s[1] <= 0 {
			t.Fatalf("%v: zero/negative segment %v", dt, s)
		}
		if s[0] < 0 {
			t.Fatalf("%v: negative offset %v", dt, s)
		}
		size += s[1]
		if s[0]+s[1] > hi {
			hi = s[0] + s[1]
		}
	}
	if size != dt.Size() {
		t.Fatalf("%v: Size=%d but segments sum to %d", dt, dt.Size(), size)
	}
	if hi > dt.Extent() {
		t.Fatalf("%v: segment reaches %d beyond extent %d", dt, hi, dt.Extent())
	}
	if dt.Contig() && len(segs) > 1 {
		t.Fatalf("%v: Contig but %d segments", dt, len(segs))
	}
}

func TestContiguous(t *testing.T) {
	dt := TypeContiguous(16)
	checkInvariants(t, dt)
	if !dt.Contig() || dt.Size() != 16 || dt.Extent() != 16 {
		t.Errorf("contig: %v", dt)
	}
	zero := TypeContiguous(0)
	checkInvariants(t, zero)
	if zero.NumSegs() != 0 {
		t.Error("zero-length contig should have no segments")
	}
}

func TestVector(t *testing.T) {
	dt := TypeVector(3, 4, 10)
	checkInvariants(t, dt)
	want := [][2]int{{0, 4}, {10, 4}, {20, 4}}
	segs := collect(dt)
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("vector segments = %v, want %v", segs, want)
		}
	}
	if dt.Size() != 12 || dt.Extent() != 24 {
		t.Errorf("vector size/extent = %d/%d", dt.Size(), dt.Extent())
	}
}

func TestVectorCollapsesToContig(t *testing.T) {
	if !TypeVector(5, 8, 8).Contig() {
		t.Error("stride==blocklen should collapse to contiguous")
	}
	if !TypeVector(1, 100, 9999).Contig() {
		t.Error("count==1 should collapse")
	}
	if !TypeVector(0, 4, 10).Contig() {
		t.Error("count==0 should collapse to empty contig")
	}
	if TypeVector(0, 4, 10).Size() != 0 {
		t.Error("count==0 size should be 0")
	}
}

func TestVectorOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping vector accepted")
		}
	}()
	TypeVector(2, 10, 5)
}

func TestIndexed(t *testing.T) {
	dt := TypeIndexed([]int{20, 0, 50}, []int{5, 10, 1})
	checkInvariants(t, dt)
	if dt.Size() != 16 {
		t.Errorf("size = %d", dt.Size())
	}
	if dt.Extent() != 51 {
		t.Errorf("extent = %d, want 51", dt.Extent())
	}
}

func TestIndexedCollapsesToContig(t *testing.T) {
	dt := TypeIndexed([]int{0, 4, 8}, []int{4, 4, 4})
	if !dt.Contig() || dt.Size() != 12 {
		t.Errorf("adjacent runs should collapse: %v", dt)
	}
	empty := TypeIndexed(nil, nil)
	if empty.Size() != 0 {
		t.Error("empty indexed size != 0")
	}
	withZeros := TypeIndexed([]int{0, 100}, []int{8, 0})
	if !withZeros.Contig() {
		t.Errorf("zero-length blocks should be dropped: %v", withZeros)
	}
}

// TestIndexedBuilder holds a builder rebuilt in place to TypeIndexed:
// over a random walk of run lists (dense, empty, zero-length, repeated)
// every Build describes what TypeIndexed builds, a repeated list returns
// the last type with its flatten cache, and a warm rebuild allocates
// nothing.
func TestIndexedBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b IndexedBuilder
	var offs, lens []int
	for i := 0; i < 300; i++ {
		if i%5 != 4 { // every fifth step repeats the last lists
			offs, lens = offs[:0], lens[:0]
			n, off := rng.Intn(6), 0
			dense := rng.Intn(3) == 0
			for k := 0; k < n; k++ {
				if !dense {
					off += rng.Intn(9)
				}
				l := rng.Intn(7)
				if dense && l == 0 {
					l = 1
				}
				offs, lens = append(offs, off), append(lens, l)
				off += l
			}
		}
		prev := b.last
		got, want := b.Build(offs, lens), TypeIndexed(offs, lens)
		if i%5 == 4 && got != prev {
			t.Fatalf("step %d: an unchanged list was rebuilt", i)
		}
		if got.Size() != want.Size() || got.Span() != want.Span() || got.Extent() != want.Extent() ||
			got.Contig() != want.Contig() || got.NumSegs() != want.NumSegs() {
			t.Fatalf("step %d: built %v, want %v", i, got, want)
		}
		checkFlatMatches(t, got)
		checkInvariants(t, got)
	}
	a, c := []int{0, 40, 100}, []int{8, 16, 8}
	d := []int{0, 48, 96}
	b.Build(a, c)
	if allocs := testing.AllocsPerRun(20, func() {
		Flatten(b.Build(a, c))
		Flatten(b.Build(d, c))
	}); allocs != 0 {
		t.Errorf("a warm rebuild allocates %.1f objects, want 0", allocs)
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of 8-byte elements; select rows 1-2, cols 2-4.
	dt := TypeSubarray([]int{4, 6}, []int{2, 3}, []int{1, 2}, 8)
	checkInvariants(t, dt)
	if dt.Size() != 2*3*8 {
		t.Errorf("size = %d", dt.Size())
	}
	segs := collect(dt)
	want := [][2]int{{(1*6 + 2) * 8, 24}, {(2*6 + 2) * 8, 24}}
	if len(segs) != 2 || segs[0] != want[0] || segs[1] != want[1] {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestSubarray3D(t *testing.T) {
	dt := TypeSubarray([]int{3, 4, 5}, []int{2, 2, 3}, []int{1, 1, 1}, 1)
	checkInvariants(t, dt)
	if dt.Size() != 12 {
		t.Errorf("size = %d", dt.Size())
	}
	if dt.NumSegs() != 4 { // 2x2 rows of 3 bytes
		t.Errorf("segs = %d, want 4", dt.NumSegs())
	}
}

func TestSubarrayFullTrailingDimsFold(t *testing.T) {
	// Selecting full rows should fold into longer runs.
	dt := TypeSubarray([]int{4, 6}, []int{2, 6}, []int{1, 0}, 8)
	if dt.NumSegs() != 1 {
		t.Errorf("full-row subarray should be one run, got %d", dt.NumSegs())
	}
	if dt.Size() != 2*6*8 {
		t.Errorf("size = %d", dt.Size())
	}
}

func TestSubarrayWholeArrayIsContig(t *testing.T) {
	dt := TypeSubarray([]int{4, 6}, []int{4, 6}, []int{0, 0}, 8)
	if !dt.Contig() {
		t.Errorf("whole-array subarray should be contiguous, got %v", dt)
	}
}

func TestSubarrayBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds subarray accepted")
		}
	}()
	TypeSubarray([]int{4}, []int{3}, []int{2}, 1)
}

func TestSubarray1D(t *testing.T) {
	dt := TypeSubarray([]int{10}, []int{4}, []int{3}, 8)
	checkInvariants(t, dt)
	segs := collect(dt)
	if len(segs) != 1 || segs[0] != [2]int{24, 32} {
		t.Errorf("segments = %v", segs)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []Datatype{
		TypeContiguous(64),
		TypeVector(5, 8, 20),
		TypeIndexed([]int{0, 30, 90}, []int{10, 20, 5}),
		TypeSubarray([]int{4, 8}, []int{3, 4}, []int{1, 2}, 2),
	}
	for _, dt := range types {
		src := make([]byte, dt.Extent())
		rng.Read(src)
		packed := make([]byte, dt.Size())
		PackInto(packed, dt, src)
		if len(packed) != dt.Size() {
			t.Fatalf("%v: packed %d bytes, want %d", dt, len(packed), dt.Size())
		}
		dst := make([]byte, dt.Extent())
		Unpack(dt, dst, packed)
		// Every byte inside a segment must match; bytes outside stay 0.
		inSeg := make([]bool, dt.Extent())
		dt.Segments(func(o, n int) {
			for i := o; i < o+n; i++ {
				inSeg[i] = true
			}
		})
		for i := range dst {
			if inSeg[i] && dst[i] != src[i] {
				t.Fatalf("%v: byte %d corrupted", dt, i)
			}
			if !inSeg[i] && dst[i] != 0 {
				t.Fatalf("%v: byte %d outside segments written", dt, i)
			}
		}
	}
}

func TestSubarrayPropertySegmentsMatchNaive(t *testing.T) {
	// Property: subarray segments enumerate exactly the elements a
	// naive nested loop would select.
	check := func(s0, s1, b0, b1, o0, o1 uint8) bool {
		sizes := []int{int(s0%6) + 1, int(s1%6) + 1}
		sub := []int{int(b0)%sizes[0] + 1, int(b1)%sizes[1] + 1}
		starts := []int{int(o0) % (sizes[0] - sub[0] + 1), int(o1) % (sizes[1] - sub[1] + 1)}
		dt := TypeSubarray(sizes, sub, starts, 1)
		want := map[int]bool{}
		for i := starts[0]; i < starts[0]+sub[0]; i++ {
			for j := starts[1]; j < starts[1]+sub[1]; j++ {
				want[i*sizes[1]+j] = true
			}
		}
		got := map[int]bool{}
		dt.Segments(func(o, n int) {
			for k := o; k < o+n; k++ {
				if got[k] {
					return // duplicate coverage
				}
				got[k] = true
			}
		})
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorPropertySizeConsistency(t *testing.T) {
	check := func(count, blocklen uint8, extra uint8) bool {
		c, b := int(count%20)+1, int(blocklen%20)+1
		stride := b + int(extra%10)
		dt := TypeVector(c, b, stride)
		checkOk := dt.Size() == c*b
		segs := 0
		total := 0
		dt.Segments(func(o, n int) { segs++; total += n })
		return checkOk && total == dt.Size() && segs == dt.NumSegs()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
