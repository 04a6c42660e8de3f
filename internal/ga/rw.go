package ga

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/mpi"
)

// patchSlot is the storage of one in-flight patch descriptor: the
// armci.Strided handed to the runtime and the arrays its Count and
// stride slices point into.
type patchSlot struct {
	s    armci.Strided
	ints [3 * maxDims]int // count | local stride | remote stride
}

// patchStrided builds, in slot, the ARMCI strided descriptor moving
// owner's share of the request [lo, hi] between the owner's remote
// block and a local row-major buffer holding the full request, whose
// per-dimension byte strides are rsLocal. For a put/acc the local
// buffer is the source; for a get it is the destination. Trailing
// dimensions that are contiguous on both sides are collapsed, as GA's
// runtime does before calling ARMCI.
func (a *Array) patchStrided(slot *patchSlot, owner int, lo, hi, rsLocal []int, local armci.Addr, isPut bool) *armci.Strided {
	nd := len(lo)
	bLo, bHi, bd := a.dist.block(owner)
	var rsRemote, pl [maxDims]int // remote byte strides, patch extents
	rsRemote[nd-1] = elemBytes
	for d := nd - 2; d >= 0; d-- {
		rsRemote[d] = rsRemote[d+1] * bd[d+1]
	}
	// Byte offsets of the patch corner within the request buffer and
	// within the owner's block.
	offLocal, offRemote := 0, 0
	for d := 0; d < nd; d++ {
		pLo := max(lo[d], bLo[d])
		pl[d] = min(hi[d], bHi[d]) - pLo + 1
		offLocal += (pLo - lo[d]) * rsLocal[d]
		offRemote += (pLo - bLo[d]) * rsRemote[d]
	}
	localBase, remoteBase := local.Add(offLocal), a.addrs[owner].Add(offRemote)
	// Collapse trailing dims that are dense on both sides.
	inner := nd - 1
	seg := pl[inner] * elemBytes
	for inner > 0 && seg == rsLocal[inner-1] && seg == rsRemote[inner-1] {
		inner--
		seg *= pl[inner]
	}
	// Build Table I notation: count[0] = seg bytes; levels walk outward.
	sl := inner
	count := slot.ints[:sl+1]
	localStride := slot.ints[maxDims : maxDims+sl]
	remoteStride := slot.ints[2*maxDims : 2*maxDims+sl]
	count[0] = seg
	for i := 0; i < sl; i++ {
		dim := inner - 1 - i
		count[i+1] = pl[dim]
		localStride[i] = rsLocal[dim]
		remoteStride[i] = rsRemote[dim]
	}
	s := &slot.s
	if isPut {
		*s = armci.Strided{Src: localBase, Dst: remoteBase, SrcStride: localStride, DstStride: remoteStride, Count: count}
	} else {
		*s = armci.Strided{Src: remoteBase, Dst: localBase, SrcStride: remoteStride, DstStride: localStride, Count: count}
	}
	return s
}

func (a *Array) reqLen(lo, hi []int) int {
	n := 1
	for d := range lo {
		n *= hi[d] - lo[d] + 1
	}
	return n
}

// fanKind selects the ARMCI operation family of a fan-out.
type fanKind int

const (
	fanPut fanKind = iota
	fanGet
	fanAcc
)

// issuePatch issues one owner's share of a fan-out: nonblocking by
// default, blocking when the environment forces the per-owner baseline
// (BlockingFanout). The handle is nil on the blocking path.
func (a *Array) issuePatch(kind fanKind, alpha float64, s *armci.Strided) (armci.Handle, error) {
	rt := a.env.Rt
	if a.env.BlockingFanout {
		var err error
		switch {
		case kind == fanPut && s.Levels() == 0:
			err = rt.Put(s.Src, s.Dst, s.SegBytes())
		case kind == fanPut:
			err = rt.PutS(s)
		case kind == fanGet && s.Levels() == 0:
			err = rt.Get(s.Src, s.Dst, s.SegBytes())
		case kind == fanGet:
			err = rt.GetS(s)
		case s.Levels() == 0:
			err = rt.Acc(armci.AccDbl, alpha, s.Src, s.Dst, s.SegBytes())
		default:
			err = rt.AccS(armci.AccDbl, alpha, s)
		}
		return nil, err
	}
	switch {
	case kind == fanPut && s.Levels() == 0:
		return rt.NbPut(s.Src, s.Dst, s.SegBytes())
	case kind == fanPut:
		return rt.NbPutS(s)
	case kind == fanGet && s.Levels() == 0:
		return rt.NbGet(s.Src, s.Dst, s.SegBytes())
	case kind == fanGet:
		return rt.NbGetS(s)
	case s.Levels() == 0:
		return rt.NbAcc(armci.AccDbl, alpha, s.Src, s.Dst, s.SegBytes())
	default:
		return rt.NbAccS(armci.AccDbl, alpha, s)
	}
}

// fanout is Figure 2 with per-owner aggregation: one strided ARMCI
// operation per owning process, all owners issued nonblocking, then a
// single WaitAll for local completion. On an issue error the handles
// already in flight are waited before reporting, so the shared scratch
// buffer is never left with outstanding operations. Descriptors and
// handles live in Env storage, one slot per owner so that none is
// rewritten before the WaitAll; a warm fan-out allocates nothing per
// owner (and nothing at all up to keepSlots owners).
func (a *Array) fanout(kind fanKind, alpha float64, lo, hi []int, local armci.Addr) error {
	e := a.env
	nd := len(lo)
	var rsLocal [maxDims]int // byte strides of the row-major request buffer
	rsLocal[nd-1] = elemBytes
	for d := nd - 2; d >= 0; d-- {
		rsLocal[d] = rsLocal[d+1] * (hi[d+1] - lo[d+1] + 1)
	}
	w := a.dist.owners(lo, hi)
	if e.slots == nil {
		e.slots = make([]patchSlot, keepSlots)
	}
	slot, handles := e.slots, e.handles[:0]
	if n := w.count(); n > len(slot) {
		slot = make([]patchSlot, n) // all up front: growing would move slots in flight
	}
	var err error
	for owner, ok := w.next(); ok && err == nil; owner, ok = w.next() {
		s := a.patchStrided(&slot[0], owner, lo, hi, rsLocal[:nd], local, kind != fanGet)
		slot = slot[1:]
		var h armci.Handle
		if h, err = a.issuePatch(kind, alpha, s); err == nil && h != nil {
			handles = append(handles, h)
		}
	}
	armci.WaitAll(handles...)
	clear(handles) // drop the references; the storage is reused
	e.handles = handles[:0]
	return err
}

// transfer is Put, Get and Acc for either element type, on the bytes
// of vals (mpi.Bytes): validate, lend them to the scratch region, fan
// out. It is not generic so that its escape analysis is its own: lo and
// hi stay on the caller's stack, which a shape instantiation called
// from another package cannot promise. As in GA's C implementation,
// the runtime moves the bytes straight between the caller's buffer and
// the owners' blocks: gets land in vals, puts and accumulates read
// from it, with no copy through a staging buffer. The runtime still
// sees the scratch address — the stable, registered buffer its
// registration cache expects (Figure 5) — with the region's length
// and registration state, so virtual time is what a staged copy gives.
// Lending ends when the fan-out's WaitAll has returned (local
// completion: every put and accumulate has read its source, every get
// has landed) or when the rank unwinds, so the region never hands the
// caller's slice to the free list.
func (a *Array) transfer(op string, kind fanKind, alpha float64, lo, hi []int, vals []byte) error {
	if a.freed {
		return fmt.Errorf("ga: operation on destroyed array %q", a.name)
	}
	if err := checkRange(a.dist.Dims, lo, hi); err != nil {
		return err
	}
	if n, want := len(vals)/elemBytes, a.reqLen(lo, hi); n != want {
		return fmt.Errorf("ga: buffer has %d elements, patch needs %d", n, want)
	}
	addr := a.env.scratch(len(vals))
	reg := a.env.scratchReg
	own := reg.SwapBacking(vals)
	defer reg.SwapBacking(own)
	if err := a.fanout(kind, alpha, lo, hi, addr); err != nil {
		return fmt.Errorf("ga: %s %q: %w", op, a.name, err)
	}
	return nil
}

// Put writes vals (row-major over the inclusive range [lo, hi]) into
// the array (GA_Put / NGA_Put). One strided ARMCI put is issued per
// owning process (Figure 2), all owners nonblocking.
func (a *Array) Put(lo, hi []int, vals []float64) error {
	return a.transfer("Put", fanPut, 1, lo, hi, mpi.Bytes(vals))
}

// Get reads the inclusive range [lo, hi] into vals (row-major)
// (GA_Get / NGA_Get). The per-owner gets overlap; the copy-out happens
// after all of them complete locally.
func (a *Array) Get(lo, hi []int, vals []float64) error {
	return a.transfer("Get", fanGet, 1, lo, hi, mpi.Bytes(vals))
}

// Acc atomically accumulates alpha*vals into the range [lo, hi]
// (GA_Acc / NGA_Acc).
func (a *Array) Acc(lo, hi []int, vals []float64, alpha float64) error {
	if a.elem != F64 {
		return fmt.Errorf("ga: Acc on non-double array %q", a.name)
	}
	return a.transfer("Acc", fanAcc, alpha, lo, hi, mpi.Bytes(vals))
}

// PutI64 writes int64 values over the inclusive range [lo, hi] of an
// integer array.
func (a *Array) PutI64(lo, hi []int, vals []int64) error {
	if a.elem != I64 {
		return fmt.Errorf("ga: PutI64 on non-integer array %q", a.name)
	}
	return a.transfer("PutI64", fanPut, 1, lo, hi, mpi.Bytes(vals))
}

// GetI64 reads int64 values over the inclusive range [lo, hi].
func (a *Array) GetI64(lo, hi []int, vals []int64) error {
	if a.elem != I64 {
		return fmt.Errorf("ga: GetI64 on non-integer array %q", a.name)
	}
	return a.transfer("GetI64", fanGet, 1, lo, hi, mpi.Bytes(vals))
}

// ReadInc atomically adds inc to the int64 element at idx and returns
// its previous value (GA_Read_inc — NWChem's NXTVAL dynamic
// load-balancing counter).
func (a *Array) ReadInc(idx []int, inc int64) (int64, error) {
	if a.elem != I64 {
		return 0, fmt.Errorf("ga: ReadInc on non-integer array %q", a.name)
	}
	if err := checkRange(a.dist.Dims, idx, idx); err != nil {
		return 0, err
	}
	owner := a.dist.OwnerOfIndex(idx)
	return a.env.Rt.Rmw(armci.FetchAndAdd, a.blockAddr(owner, idx), inc)
}

// fill sets every element of the calling rank's block to v, then
// synchronizes.
func fill[T float64 | int64](a *Array, v T) error {
	if idx := a.myOwnerIdx(); idx >= 0 && idx < a.dist.OwnerCount() {
		b, err := a.Access()
		if err != nil {
			return err
		}
		elems := mpi.View[T](b.mem)
		for i := range elems {
			elems[i] = v
		}
		if err := b.Release(); err != nil {
			return err
		}
	}
	a.sync()
	return nil
}

// Fill sets every element to v (GA_Fill); collective.
func (a *Array) Fill(v float64) error { return fill(a, v) }

// FillI64 sets every element of an integer array to v; collective.
func (a *Array) FillI64(v int64) error {
	if a.elem != I64 {
		return fmt.Errorf("ga: FillI64 on non-integer array %q", a.name)
	}
	return fill(a, v)
}

// Zero clears the array (GA_Zero); collective.
func (a *Array) Zero() error { return a.Fill(0) }

// CopyTo copies this array into dst, which must have identical shape
// and element type (GA_Copy); collective. Each process gathers the
// range its dst block covers from the source.
func (a *Array) CopyTo(dst *Array) error {
	if len(a.dist.Dims) != len(dst.dist.Dims) || a.elem != dst.elem {
		return fmt.Errorf("ga: Copy shape/type mismatch %q -> %q", a.name, dst.name)
	}
	for d := range a.dist.Dims {
		if a.dist.Dims[d] != dst.dist.Dims[d] {
			return fmt.Errorf("ga: Copy extent mismatch in dim %d", d)
		}
	}
	a.sync()
	if idx := dst.myOwnerIdx(); idx >= 0 && idx < dst.dist.OwnerCount() {
		lo, hi, ok := dst.dist.Block(idx)
		if ok {
			vals := make([]float64, dst.reqLen(lo, hi))
			if err := a.Get(lo, hi, vals); err != nil {
				return err
			}
			blk, err := dst.Access()
			if err != nil {
				return err
			}
			copy(blk.F64s(), vals)
			if err := blk.Release(); err != nil {
				return err
			}
		}
	}
	a.sync()
	return nil
}
