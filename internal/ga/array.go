package ga

import (
	"fmt"
	"slices"

	"repro/internal/armci"
	"repro/internal/mpi"
)

// Array is one rank's handle to a global array. Handles are created
// collectively and contain identical metadata on every rank.
type Array struct {
	env  *Env
	name string
	elem Elem
	dist *Distribution

	group *armci.Group // nil means the world
	addrs []armci.Addr // base address per owner index
	freed bool
}

// Create collectively creates a global array distributed over all
// processes (GA_Create with regular distribution).
func (e *Env) Create(name string, elem Elem, dims []int) (*Array, error) {
	return e.createOn(nil, name, elem, dims)
}

// CreateOnGroup creates an array distributed over a processor group;
// only members call.
func (e *Env) CreateOnGroup(g *armci.Group, name string, elem Elem, dims []int) (*Array, error) {
	if g == nil {
		return nil, fmt.Errorf("ga: CreateOnGroup with nil group")
	}
	return e.createOn(g, name, elem, dims)
}

func (e *Env) createOn(g *armci.Group, name string, elem Elem, dims []int) (*Array, error) {
	if len(dims) == 0 || len(dims) > maxDims {
		return nil, fmt.Errorf("ga: Create(%q): %d dimensions, want 1..%d", name, len(dims), maxDims)
	}
	for d, x := range dims {
		if x <= 0 {
			return nil, fmt.Errorf("ga: Create(%q): dim %d extent %d", name, d, x)
		}
	}
	nprocs := e.Nprocs()
	if g != nil {
		nprocs = g.Size()
	}
	dist := newDistribution(dims, nprocs)
	// My owner index: my position among the group's processes.
	myIdx := e.Me()
	if g != nil {
		myIdx = g.RankOf(e.Me())
	}
	mine := 0
	if bd := dist.BlockDims(myIdx); bd != nil {
		mine = elemBytes
		for _, x := range bd {
			mine *= x
		}
	}
	var addrs []armci.Addr
	var err error
	if g == nil {
		addrs, err = e.Rt.Malloc(mine)
	} else {
		addrs, err = e.Rt.MallocGroup(g, mine)
	}
	if err != nil {
		return nil, fmt.Errorf("ga: Create(%q): %w", name, err)
	}
	a := &Array{env: e, name: name, elem: elem, dist: dist, group: g, addrs: addrs}
	// Regions are born zeroed in the simulation (GA arrays start
	// zeroed); the sync establishes GA_Create's barrier semantics over
	// the array's group.
	a.sync()
	return a, nil
}

// Destroy collectively releases the array (GA_Destroy).
func (a *Array) Destroy() error {
	if a.freed {
		return fmt.Errorf("ga: %q already destroyed", a.name)
	}
	a.freed = true
	my := a.myAddr()
	if a.group == nil {
		return a.env.Rt.Free(my)
	}
	return a.env.Rt.FreeGroup(a.group, my)
}

// sync synchronizes the processes of the array's group (the world for
// ordinary arrays), fencing outstanding communication.
func (a *Array) sync() {
	a.env.Rt.AllFence()
	if a.group == nil {
		a.env.Mpi.CommWorld().Barrier()
	} else {
		a.group.Comm.Barrier()
	}
}

// myAddr returns the calling rank's base address (Nil if it owns no
// block).
func (a *Array) myAddr() armci.Addr {
	idx := a.myOwnerIdx()
	if idx < 0 || idx >= len(a.addrs) {
		return armci.Addr{}
	}
	return a.addrs[idx]
}

func (a *Array) myOwnerIdx() int {
	if a.group == nil {
		return a.env.Me()
	}
	return a.group.RankOf(a.env.Me())
}

// worldRankOfOwner translates an owner index to a world rank.
func (a *Array) worldRankOfOwner(owner int) int {
	if a.group == nil {
		return owner
	}
	return a.group.AbsoluteID(owner)
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Distribution returns the inclusive bounds of the block owned by the
// given process (world rank); ok is false when it owns nothing
// (GA_Distribution).
func (a *Array) Distribution(world int) (lo, hi []int, ok bool) {
	owner := world
	if a.group != nil {
		owner = a.group.RankOf(world)
		if owner < 0 {
			return nil, nil, false
		}
	}
	if owner >= a.dist.OwnerCount() {
		return nil, nil, false
	}
	lo, hi, ok = a.dist.Block(owner)
	return slices.Clone(lo), slices.Clone(hi), ok
}

// Locate returns the world rank owning the element at idx (GA_Locate).
func (a *Array) Locate(idx []int) (int, error) {
	if err := checkRange(a.dist.Dims, idx, idx); err != nil {
		return -1, err
	}
	return a.worldRankOfOwner(a.dist.OwnerOfIndex(idx)), nil
}

// LocateRegion returns the per-owner patches of [lo, hi] with owner
// expressed as world rank (GA_Locate_region).
func (a *Array) LocateRegion(lo, hi []int) ([]Patch, error) {
	if err := checkRange(a.dist.Dims, lo, hi); err != nil {
		return nil, err
	}
	ps := a.dist.Intersect(lo, hi)
	out := make([]Patch, len(ps))
	for i, p := range ps {
		out[i] = Patch{Owner: a.worldRankOfOwner(p.Owner), Lo: p.Lo, Hi: p.Hi}
	}
	return out, nil
}

// blockAddr returns the remote address of element `idx` inside the
// block of the given owner index.
func (a *Array) blockAddr(owner int, idx []int) armci.Addr {
	bLo, _, bd := a.dist.block(owner)
	off := 0
	for d := range idx {
		off = off*bd[d] + (idx[d] - bLo[d])
	}
	return a.addrs[owner].Add(off * elemBytes)
}

// Access grants direct access to the calling process's local block
// (GA_Access): the block's F64s/I64s alias its memory until Release.
// The block's extents come from Distribution.
func (a *Array) Access() (*LocalBlock, error) {
	if a.freed {
		return nil, fmt.Errorf("ga: Access on destroyed array %q", a.name)
	}
	idx := a.myOwnerIdx()
	if idx < 0 || idx >= a.dist.OwnerCount() {
		return nil, fmt.Errorf("ga: Access: rank %d owns no block of %q", a.env.Me(), a.name)
	}
	lo, hi, bd := a.dist.block(idx)
	n := elemBytes
	for _, x := range bd {
		n *= x
	}
	mem, err := a.env.Rt.AccessBegin(a.addrs[idx], n)
	if err != nil {
		return nil, err
	}
	return &LocalBlock{a: a, mem: mem, dims: bd, Lo: slices.Clone(lo), Hi: slices.Clone(hi)}, nil
}

// Release ends direct access (GA_Release / GA_Release_update).
func (b *LocalBlock) Release() error {
	return b.a.env.Rt.AccessEnd(b.a.addrs[b.a.myOwnerIdx()])
}

// LocalBlock is a directly accessible local block of a global array.
type LocalBlock struct {
	a      *Array
	mem    []byte
	dims   []int // shared block table row: read-only
	Lo, Hi []int // inclusive global bounds of the block (the caller's own copies)
}

// F64s returns the block's elements in row-major order, aliasing its
// memory until Release.
func (b *LocalBlock) F64s() []float64 { return mpi.View[float64](b.mem) }

// Dims returns the block extents.
func (b *LocalBlock) Dims() []int { return append([]int(nil), b.dims...) }

// offset computes the byte offset of local (block-relative) indices.
func (b *LocalBlock) offset(idx []int) int {
	off := 0
	for d := range idx {
		off = off*b.dims[d] + idx[d]
	}
	return off * elemBytes
}

// SetF64 writes the float64 at block-relative indices.
func (b *LocalBlock) SetF64(v float64, idx ...int) { f64put(b.mem[b.offset(idx):], v) }
