package mpi

import (
	"fmt"
	"slices"
)

// Datatype describes a (possibly noncontiguous) byte layout relative to
// a base address, in the spirit of MPI derived datatypes. All datatypes
// here are byte-granular: element width is folded into lengths, which
// keeps the typemap machinery simple while preserving the layout and
// cost structure (segment counts, pack sizes) that matters to RMA.
type Datatype interface {
	// Size is the number of data bytes the type describes.
	Size() int
	// Extent is the MPI extent: one past the end of the layout's
	// footprint, padding included (for a subarray, the whole parent
	// array). Use Span for the bytes actually touched.
	Extent() int
	// Span is one past the highest byte the type actually touches —
	// MPI's "true extent". Memory access uses Span, never Extent.
	Span() int
	// Contig reports whether the type is a single dense run.
	Contig() bool
	// NumSegs is the number of contiguous runs.
	NumSegs() int
	// Segments calls fn for every contiguous run as (offset, length)
	// relative to the base address, in ascending offset order for
	// well-formed types. Hot paths should prefer ranging over
	// Flatten(t).Segs, which enumerates at most once per type.
	Segments(fn func(off, n int))
	// String describes the type for diagnostics.
	String() string
}

// contigType is a single dense run of n bytes.
type contigType struct{ n int }

// TypeContiguous returns a datatype of n contiguous bytes.
func TypeContiguous(n int) Datatype {
	if n < 0 {
		panic("mpi: TypeContiguous with negative length")
	}
	return contigType{n: n}
}

func (t contigType) Size() int    { return t.n }
func (t contigType) Extent() int  { return t.n }
func (t contigType) Span() int    { return t.n }
func (t contigType) Contig() bool { return true }
func (t contigType) NumSegs() int {
	if t.n == 0 {
		return 0
	}
	return 1
}
func (t contigType) Segments(fn func(o, n int)) {
	if t.n > 0 {
		fn(0, t.n)
	}
}
func (t contigType) String() string { return fmt.Sprintf("contig(%dB)", t.n) }

// vectorType is count blocks of blocklen bytes, with stride bytes
// between block starts.
type vectorType struct {
	count, blocklen, stride int
	fl                      *Flat // lazily built flatten cache
}

func (t *vectorType) Size() int    { return t.count * t.blocklen }
func (t *vectorType) Extent() int  { return (t.count-1)*t.stride + t.blocklen }
func (t *vectorType) Span() int    { return (t.count-1)*t.stride + t.blocklen }
func (t *vectorType) Contig() bool { return false }
func (t *vectorType) NumSegs() int { return t.count }
func (t *vectorType) Segments(fn func(o, n int)) {
	for i := 0; i < t.count; i++ {
		fn(i*t.stride, t.blocklen)
	}
}
func (t *vectorType) flat() *Flat {
	if t.fl == nil {
		t.fl = buildFlat(t)
	}
	return t.fl
}
func (t *vectorType) String() string {
	return fmt.Sprintf("vector(%dx%dB/%d)", t.count, t.blocklen, t.stride)
}

// indexedType is an explicit list of (displacement, length) runs —
// MPI_Type_indexed with byte displacements (hindexed).
type indexedType struct {
	offs, lens []int
	size, ext  int
	nsegs      int
	fl         *Flat // lazily built flatten cache; empty until built
}

// TypeIndexed returns a datatype with explicit byte displacements and
// block lengths. The lists must have equal length. Runs need not be
// sorted but must not overlap; overlap is not checked here (MPI
// declares communication with overlapping target runs erroneous, and
// the RMA layer detects it when checking is enabled).
func TypeIndexed(offs, lens []int) Datatype {
	t := new(indexedType)
	if t.set(offs, lens) {
		return contigType{n: t.size}
	}
	return t
}

// set makes t the indexed type of the runs, copying the lists into t's
// own storage and emptying its flatten cache (whose segment list the
// rebuild refills). It reports whether the runs are one dense block
// from offset 0, or nothing at all: TypeIndexed's contiguous type of
// t.size bytes.
func (t *indexedType) set(offs, lens []int) (dense bool) {
	if len(offs) != len(lens) {
		panic("mpi: TypeIndexed length mismatch")
	}
	*t = indexedType{offs: append(t.offs[:0], offs...), lens: append(t.lens[:0], lens...), fl: t.fl}
	if t.fl != nil {
		t.fl.Segs = t.fl.Segs[:0]
	}
	lo, hi := 0, 0
	first := true
	for i, n := range t.lens {
		if n < 0 {
			panic("mpi: TypeIndexed with negative block length")
		}
		if n == 0 {
			continue
		}
		t.size += n
		t.nsegs++
		o := t.offs[i]
		if first || o < lo {
			lo = o
		}
		if first || o+n > hi {
			hi = o + n
		}
		first = false
	}
	if first {
		return true
	}
	if lo < 0 {
		panic("mpi: TypeIndexed with negative displacement")
	}
	// Extent is measured from the base address (offset 0), so a type
	// whose first run starts at a positive displacement still spans it.
	t.ext = hi
	return t.size == t.ext && lo == 0 && contiguousRuns(t.offs, t.lens)
}

// IndexedBuilder builds indexed datatypes in storage it keeps: a
// caller that describes a new list of runs per operation (ARMCI-MPI's
// IOV-direct method) reuses one builder per side rather than freeing
// one type and creating the next, as MPI_Type_free and
// MPI_Type_indexed would. The zero value is ready to use.
type IndexedBuilder struct {
	t     indexedType
	last  Datatype // what the last Build returned, nil before the first
	dense Datatype // the last contiguous collapse, boxed once per size
}

// Build returns the datatype TypeIndexed(offs, lens) would, built in
// b's storage: the lists are copied into b's own and the flatten cache
// is refilled in b's segment list, so once b has grown a Build
// allocates nothing. Lists equal to the last Build's return the last
// type untouched, flatten cache included. A rebuild changes the type
// every earlier Build returned, so the caller must not Build while an
// operation that reads an earlier result is still in flight.
func (b *IndexedBuilder) Build(offs, lens []int) Datatype {
	if b.last != nil && slices.Equal(b.t.offs, offs) && slices.Equal(b.t.lens, lens) {
		return b.last
	}
	b.last = &b.t
	if b.t.set(offs, lens) {
		if b.dense == nil || b.dense.Size() != b.t.size {
			b.dense = contigType{n: b.t.size}
		}
		b.last = b.dense
	}
	return b.last
}

func contiguousRuns(offs, lens []int) bool {
	next := -1
	for i := range offs {
		if lens[i] == 0 {
			continue
		}
		if next >= 0 && offs[i] != next {
			return false
		}
		if next < 0 && offs[i] != 0 {
			return false
		}
		next = offs[i] + lens[i]
	}
	return true
}

func (t *indexedType) Size() int    { return t.size }
func (t *indexedType) Extent() int  { return t.ext }
func (t *indexedType) Span() int    { return t.ext }
func (t *indexedType) Contig() bool { return false }
func (t *indexedType) NumSegs() int { return t.nsegs }
func (t *indexedType) Segments(fn func(o, n int)) {
	for i := range t.offs {
		if t.lens[i] > 0 {
			fn(t.offs[i], t.lens[i])
		}
	}
}
func (t *indexedType) flat() *Flat {
	if t.fl == nil {
		t.fl = new(Flat)
	}
	if len(t.fl.Segs) == 0 { // an indexed type has at least one run
		segs := slices.Grow(t.fl.Segs, t.nsegs)
		for i, n := range t.lens {
			if n > 0 {
				segs = append(segs, Segment{Off: t.offs[i], N: n})
			}
		}
		*t.fl = Flat{Segs: segs, size: t.size, span: t.ext}
	}
	return t.fl
}
func (t *indexedType) String() string {
	return fmt.Sprintf("indexed(%d segs, %dB)", t.nsegs, t.size)
}

// subarrayType selects an n-dimensional subarray out of a larger array,
// in C (row-major) order, with elem bytes per element.
//
// The run decomposition is computed once at construction: lead is the
// number of leading dimensions the segment odometer iterates (trailing
// fully selected dimensions fold into one run), runBytes the length of
// each contiguous run, runs the run count, and span the analytic
// last-touched-byte bound — so Span and NumSegs are O(1) instead of
// re-enumerating every run on every call.
type subarrayType struct {
	sizes, subsizes, starts []int
	elem                    int
	size                    int

	lead     int
	runBytes int
	runs     int
	span     int
	fl       *Flat // lazily built flatten cache
}

// TypeSubarray returns an MPI_Type_create_subarray-style datatype in C
// order: sizes are the full array dimensions (outermost first),
// subsizes the selected block, starts the per-dimension origin, and
// elem the element size in bytes.
func TypeSubarray(sizes, subsizes, starts []int, elem int) Datatype {
	nd := len(sizes)
	if len(subsizes) != nd || len(starts) != nd {
		panic("mpi: TypeSubarray dimension mismatch")
	}
	if elem <= 0 {
		panic("mpi: TypeSubarray with non-positive element size")
	}
	size := elem
	for d := 0; d < nd; d++ {
		if subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			panic(fmt.Sprintf("mpi: TypeSubarray dim %d out of bounds: size=%d sub=%d start=%d",
				d, sizes[d], subsizes[d], starts[d]))
		}
		size *= subsizes[d]
	}
	if nd == 0 {
		return contigType{n: elem}
	}
	t := &subarrayType{
		sizes:    append([]int(nil), sizes...),
		subsizes: append([]int(nil), subsizes...),
		starts:   append([]int(nil), starts...),
		elem:     elem,
		size:     size,
	}
	t.precompute()
	// Collapse to contiguous when the subarray is dense in memory.
	if t.runs <= 1 {
		off, n := t.onlySegment()
		if off == 0 {
			return contigType{n: n}
		}
		return TypeIndexed([]int{off}, []int{n})
	}
	return t
}

// precompute derives the run decomposition and analytic span.
func (t *subarrayType) precompute() {
	nd := len(t.sizes)
	// Fold trailing dimensions that are fully selected into the run.
	d := nd - 1
	runBytes := t.subsizes[nd-1] * t.elem
	for d > 0 && t.subsizes[d] == t.sizes[d] && t.starts[d] == 0 {
		d--
		runBytes = t.subsizes[d] * rowStride(t.sizes, d+1) * t.elem
	}
	t.lead = d
	t.runBytes = runBytes
	t.runs = 1
	for i := 0; i < d; i++ {
		t.runs *= t.subsizes[i]
	}
	if t.size == 0 {
		t.runs = 0
		return
	}
	// The highest run starts at the last index of every leading
	// dimension; its end is the span.
	off := 0
	for i := 0; i < d; i++ {
		off += (t.starts[i] + t.subsizes[i] - 1) * rowStride(t.sizes, i+1)
	}
	off += t.starts[d] * rowStride(t.sizes, d+1)
	t.span = off*t.elem + runBytes
}

func (t *subarrayType) Size() int { return t.size }

// Span is the last touched byte + 1, precomputed analytically at
// construction.
func (t *subarrayType) Span() int { return t.span }

func (t *subarrayType) Extent() int {
	ext := t.elem
	for _, s := range t.sizes {
		ext *= s
	}
	return ext
}
func (t *subarrayType) Contig() bool { return false }

func rowStride(sizes []int, from int) int {
	s := 1
	for i := from; i < len(sizes); i++ {
		s *= sizes[i]
	}
	return s
}

func (t *subarrayType) NumSegs() int { return t.runs }

func (t *subarrayType) onlySegment() (off, n int) {
	got := false
	t.Segments(func(o, l int) {
		if !got {
			off, n = o, l
			got = true
		} else {
			n += l // only called when NumSegs()<=1, so this is unreachable
		}
	})
	return off, n
}

func (t *subarrayType) Segments(fn func(o, n int)) {
	if t.size == 0 {
		return
	}
	d := t.lead
	idx := make([]int, d)
	for {
		off := 0
		for i := 0; i < d; i++ {
			off += (t.starts[i] + idx[i]) * rowStride(t.sizes, i+1)
		}
		off += t.starts[d] * rowStride(t.sizes, d+1)
		fn(off*t.elem, t.runBytes)
		// Odometer increment over the leading dims.
		i := d - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < t.subsizes[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

func (t *subarrayType) flat() *Flat {
	if t.fl == nil {
		t.fl = buildFlat(t)
	}
	return t.fl
}

func (t *subarrayType) String() string {
	return fmt.Sprintf("subarray(%v of %v @%v, elem=%dB)", t.subsizes, t.sizes, t.starts, t.elem)
}
