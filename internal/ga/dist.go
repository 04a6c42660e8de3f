package ga

import (
	"sort"
	"sync"
)

// Distribution describes the regular block decomposition of an array
// over a process grid: dimension d is split into grid[d] nearly equal
// blocks, and grid coordinates map to owner ranks in row-major order.
type Distribution struct {
	Dims []int   // array extents
	Grid []int   // process grid extents (product <= nprocs)
	cuts [][]int // per dim: block start indices, length grid[d]+1
	// blocks is the per-owner block table: for each owner index its
	// inclusive lo, its inclusive hi and its extents, nd ints each, in
	// one backing array. Like the record it is shared by every rank
	// (and every job of the same shape) through distCache, so nothing
	// may write it after buildDistribution and nothing may hand a slice
	// of it to a caller outside the package.
	blocks []int
}

// factorGrid chooses a process grid for nprocs processes over the
// given array dims: prime factors of nprocs are assigned greedily to
// the dimension with the largest per-block extent, never exceeding the
// dimension's size. Any unassignable factor is dropped (those
// processes own no data, which GA permits).
func factorGrid(nprocs int, dims []int) []int {
	grid := make([]int, len(dims))
	for d := range grid {
		grid[d] = 1
	}
	for _, f := range primeFactors(nprocs) {
		// Pick the dimension where blocks are currently largest and can
		// still be split by f.
		best, bestLen := -1, 0
		for d := range dims {
			blockLen := dims[d] / grid[d]
			if grid[d]*f <= dims[d] && blockLen >= bestLen {
				best, bestLen = d, blockLen
			}
		}
		if best < 0 {
			continue // cannot use this factor; some ranks stay empty
		}
		grid[best] *= f
	}
	return grid
}

// primeFactors returns n's prime factorization, largest first.
func primeFactors(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(fs)))
	return fs
}

// distCache shares Distribution records across the ranks of a job:
// the decomposition is a pure function of (dims, nprocs) and identical
// on every rank, so at large process counts one immutable record
// serves everyone instead of each rank holding its own O(grid) cut
// vectors (a 1-D array over 16k ranks costs 128 KB of cuts per rank
// otherwise).
var (
	distMu    sync.Mutex
	distCache = map[distKey]*Distribution{}
)

// distKey is distCache's key: the shape by value, so a lookup builds
// nothing.
type distKey struct {
	dims       [maxDims]int
	nd, nprocs int
}

// newDistribution builds (or returns the cached) block decomposition.
func newDistribution(dims []int, nprocs int) *Distribution {
	key := distKey{nd: len(dims), nprocs: nprocs}
	copy(key.dims[:], dims)
	distMu.Lock()
	defer distMu.Unlock()
	if d, ok := distCache[key]; ok {
		return d
	}
	d := buildDistribution(dims, nprocs)
	distCache[key] = d
	return d
}

// buildDistribution computes the block decomposition and its
// per-owner block table.
func buildDistribution(dims []int, nprocs int) *Distribution {
	grid := factorGrid(nprocs, dims)
	d := &Distribution{Dims: append([]int(nil), dims...), Grid: grid}
	d.cuts = make([][]int, len(dims))
	for dim := range dims {
		g := grid[dim]
		cuts := make([]int, g+1)
		base, rem := dims[dim]/g, dims[dim]%g
		pos := 0
		for b := 0; b < g; b++ {
			cuts[b] = pos
			pos += base
			if b < rem {
				pos++
			}
		}
		cuts[g] = dims[dim]
		d.cuts[dim] = cuts
	}
	nd := len(dims)
	d.blocks = make([]int, d.OwnerCount()*3*nd)
	for owner := 0; owner < d.OwnerCount(); owner++ {
		lo, hi, ext := d.block(owner)
		o := owner
		for dim := nd - 1; dim >= 0; dim-- {
			c := o % grid[dim]
			o /= grid[dim]
			lo[dim] = d.cuts[dim][c]
			hi[dim] = d.cuts[dim][c+1] - 1
			ext[dim] = hi[dim] - lo[dim] + 1
		}
	}
	return d
}

// OwnerCount returns the number of processes that own data.
func (d *Distribution) OwnerCount() int {
	n := 1
	for _, g := range d.Grid {
		n *= g
	}
	return n
}

// block returns owner's rows of the block table: inclusive bounds and
// extents. The slices are the shared table itself — read-only.
func (d *Distribution) block(owner int) (lo, hi, ext []int) {
	nd := len(d.Dims)
	b := d.blocks[owner*3*nd : (owner+1)*3*nd]
	return b[:nd:nd], b[nd : 2*nd : 2*nd], b[2*nd:]
}

// Block returns the inclusive [lo, hi] index range owned by owner in
// each dimension; ok is false when the owner index is out of range.
// (No block is ever empty: factorGrid never splits a dimension into
// more blocks than it has elements.) The slices are shared and
// read-only; Array.Distribution hands out copies.
func (d *Distribution) Block(owner int) (lo, hi []int, ok bool) {
	if owner < 0 || owner >= d.OwnerCount() {
		return nil, nil, false
	}
	lo, hi, _ = d.block(owner)
	return lo, hi, true
}

// BlockDims returns the extents of an owner's block (shared,
// read-only), nil when the owner index is out of range.
func (d *Distribution) BlockDims(owner int) []int {
	if owner < 0 || owner >= d.OwnerCount() {
		return nil
	}
	_, _, ext := d.block(owner)
	return ext
}

// OwnerOfIndex returns the owner index holding the given element.
func (d *Distribution) OwnerOfIndex(idx []int) int {
	o := 0
	for dim := range d.Dims {
		o = o*d.Grid[dim] + sort.SearchInts(d.cuts[dim][1:], idx[dim]+1)
	}
	return o
}

// Patch is the intersection of a requested range with one owner's
// block (inclusive bounds).
type Patch struct {
	Owner  int // owner index (not world rank)
	Lo, Hi []int
}

// ownerWalk is the odometer over the grid coordinates of the owners a
// requested range touches, in owner order, last dimension fastest. It
// lives on the caller's stack.
type ownerWalk struct {
	grid        []int
	lo, hi, cur [maxDims]int // coordinate range and cursor
	done        bool
}

// owners starts the walk over the owners of [lo, hi].
func (d *Distribution) owners(lo, hi []int) ownerWalk {
	w := ownerWalk{grid: d.Grid}
	for dim := range d.Grid {
		w.lo[dim] = sort.SearchInts(d.cuts[dim][1:], lo[dim]+1)
		w.hi[dim] = sort.SearchInts(d.cuts[dim][1:], hi[dim]+1)
	}
	w.cur = w.lo
	return w
}

// count returns the number of owners the whole walk visits.
func (w *ownerWalk) count() int {
	n := 1
	for dim := range w.grid {
		n *= w.hi[dim] - w.lo[dim] + 1
	}
	return n
}

// next returns the next owner index; ok is false after the last.
func (w *ownerWalk) next() (owner int, ok bool) {
	if w.done {
		return 0, false
	}
	for dim, g := range w.grid {
		owner = owner*g + w.cur[dim]
	}
	dim := len(w.grid) - 1
	for ; dim >= 0; dim-- {
		w.cur[dim]++
		if w.cur[dim] <= w.hi[dim] {
			break
		}
		w.cur[dim] = w.lo[dim]
	}
	w.done = dim < 0
	return owner, true
}

// Intersect returns the per-owner patches covering [lo, hi], in owner
// order — the fan-out of the paper's Figure 2. The patches are the
// caller's own.
func (d *Distribution) Intersect(lo, hi []int) []Patch {
	nd := len(d.Dims)
	w := d.owners(lo, hi)
	patches := make([]Patch, 0, w.count())
	for owner, ok := w.next(); ok; owner, ok = w.next() {
		bLo, bHi, _ := d.block(owner)
		p := Patch{Owner: owner, Lo: make([]int, nd), Hi: make([]int, nd)}
		for dim := 0; dim < nd; dim++ {
			p.Lo[dim] = max(lo[dim], bLo[dim])
			p.Hi[dim] = min(hi[dim], bHi[dim])
		}
		patches = append(patches, p)
	}
	return patches
}
