package ga

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/armci"
	"repro/internal/mpi"
)

// issueIOV issues one owner bucket's generalized I/O vector operation:
// nonblocking by default, blocking under the BlockingFanout baseline
// (nil handle).
func (a *Array) issueIOV(kind fanKind, alpha float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	rt := a.env.Rt
	if a.env.BlockingFanout {
		var err error
		switch kind {
		case fanPut:
			err = rt.PutV(iov, proc)
		case fanGet:
			err = rt.GetV(iov, proc)
		default:
			err = rt.AccV(armci.AccDbl, alpha, iov, proc)
		}
		return nil, err
	}
	switch kind {
	case fanPut:
		return rt.NbPutV(iov, proc)
	case fanGet:
		return rt.NbGetV(iov, proc)
	default:
		return rt.NbAccV(armci.AccDbl, alpha, iov, proc)
	}
}

// Gather reads the elements at the given subscripts into vals
// (NGA_Gather). The subscripts may be scattered arbitrarily; one
// generalized I/O vector operation is issued per owning process
// (SectionVI.A's workload), all owners nonblocking with a single
// WaitAll before the copy-out.
func (a *Array) Gather(subs [][]int, vals []float64) error {
	return a.elements("Gather", fanGet, 1, subs, vals)
}

// Scatter writes vals to the elements at the given subscripts
// (NGA_Scatter).
func (a *Array) Scatter(subs [][]int, vals []float64) error {
	return a.elements("Scatter", fanPut, 1, subs, vals)
}

// ScatterAcc accumulates vals into the elements at the subscripts
// (NGA_Scatter_acc).
func (a *Array) ScatterAcc(subs [][]int, vals []float64, alpha float64) error {
	if a.elem != F64 {
		return fmt.Errorf("ga: ScatterAcc on non-double array %q", a.name)
	}
	return a.elements("ScatterAcc", fanAcc, alpha, subs, vals)
}

// elements is Gather, Scatter and ScatterAcc: the subscripts are
// bucketed by owner, each bucket's values packed contiguously in the
// scratch buffer in owner order, and one I/O vector operation issued
// per owner.
func (a *Array) elements(op string, kind fanKind, alpha float64, subs [][]int, vals []float64) error {
	if len(vals) != len(subs) {
		return fmt.Errorf("ga: %s: %d subscripts but %d values", op, len(subs), len(vals))
	}
	groups, err := a.iovByOwner(subs)
	if err != nil {
		return err
	}
	scratch := a.env.scratch(len(subs) * elemBytes)
	var packed []float64 // the scratch buffer, viewed once a gather has landed
	if kind != fanGet {
		packed = mpi.View[float64](a.env.scratchBytes(len(subs) * elemBytes))
	}
	var handles []armci.Handle
	pos := 0
	for _, bkt := range groups {
		g := armci.GIOV{Bytes: elemBytes}
		for _, k := range bkt.idxs {
			remote, local := a.blockAddr(bkt.owner, subs[k]), scratch.Add(pos*elemBytes)
			if kind == fanGet {
				g.Src, g.Dst = append(g.Src, remote), append(g.Dst, local)
			} else {
				packed[pos] = vals[k]
				g.Src, g.Dst = append(g.Src, local), append(g.Dst, remote)
			}
			pos++
		}
		h, err := a.issueIOV(kind, alpha, []armci.GIOV{g}, a.worldRankOfOwner(bkt.owner))
		if err != nil {
			armci.WaitAll(handles...)
			return fmt.Errorf("ga: %s %q: %w", op, a.name, err)
		}
		if h != nil {
			handles = append(handles, h)
		}
	}
	armci.WaitAll(handles...)
	if kind == fanGet {
		packed, pos = mpi.View[float64](a.env.scratchBytes(len(subs)*elemBytes)), 0
		for _, bkt := range groups {
			for _, k := range bkt.idxs {
				vals[k] = packed[pos]
				pos++
			}
		}
	}
	return nil
}

// ownerBucket is one owner's share of a gather/scatter.
type ownerBucket struct {
	owner int
	idxs  []int
}

// iovByOwner buckets subscripts by owning process in ascending owner
// order (map iteration would make virtual time nondeterministic).
func (a *Array) iovByOwner(subs [][]int) ([]ownerBucket, error) {
	groups := map[int][]int{}
	var owners []int
	for k, sub := range subs {
		if err := checkRange(a.dist.Dims, sub, sub); err != nil {
			return nil, err
		}
		owner := a.dist.OwnerOfIndex(sub)
		if _, seen := groups[owner]; !seen {
			owners = append(owners, owner)
		}
		groups[owner] = append(groups[owner], k)
	}
	slices.Sort(owners)
	out := make([]ownerBucket, len(owners))
	for i, o := range owners {
		out[i] = ownerBucket{owner: o, idxs: groups[o]}
	}
	return out, nil
}

// Duplicate creates a new array with the same shape, type, and
// distribution (GA_Duplicate); contents are zero.
func (a *Array) Duplicate(name string) (*Array, error) {
	if a.group == nil {
		return a.env.Create(name, a.elem, a.dist.Dims)
	}
	return a.env.CreateOnGroup(a.group, name, a.elem, a.dist.Dims)
}

// Scale multiplies every element by alpha (GA_Scale); collective.
func (a *Array) Scale(alpha float64) error {
	if a.elem != F64 {
		return fmt.Errorf("ga: Scale on non-double array %q", a.name)
	}
	if idx := a.myOwnerIdx(); idx >= 0 && idx < a.dist.OwnerCount() {
		b, err := a.Access()
		if err != nil {
			return err
		}
		elems := b.F64s()
		for i := range elems {
			elems[i] *= alpha
		}
		if err := b.Release(); err != nil {
			return err
		}
	}
	a.sync()
	return nil
}

// Add computes c = alpha*a + beta*b elementwise (GA_Add); all three
// arrays must share shape and distribution. Collective.
func Add(alpha float64, a *Array, beta float64, b *Array, c *Array) error {
	for _, pair := range [][2]*Array{{a, b}, {a, c}} {
		x, y := pair[0], pair[1]
		if len(x.dist.Dims) != len(y.dist.Dims) {
			return fmt.Errorf("ga: Add: rank mismatch %q/%q", x.name, y.name)
		}
		for d := range x.dist.Dims {
			if x.dist.Dims[d] != y.dist.Dims[d] {
				return fmt.Errorf("ga: Add: extent mismatch in dim %d", d)
			}
		}
	}
	// Each process combines the patches covering its c block.
	if idx := c.myOwnerIdx(); idx >= 0 && idx < c.dist.OwnerCount() {
		lo, hi, ok := c.dist.Block(idx)
		if ok {
			n := c.reqLen(lo, hi)
			av := make([]float64, n)
			bv := make([]float64, n)
			if err := a.Get(lo, hi, av); err != nil {
				return err
			}
			if err := b.Get(lo, hi, bv); err != nil {
				return err
			}
			blk, err := c.Access()
			if err != nil {
				return err
			}
			for i, cv := 0, blk.F64s(); i < n; i++ {
				cv[i] = alpha*av[i] + beta*bv[i]
			}
			if err := blk.Release(); err != nil {
				return err
			}
		}
	}
	c.sync()
	return nil
}

// Dot returns the global dot product sum(a .* b) (GA_Ddot); collective.
func Dot(a, b *Array) (float64, error) {
	if len(a.dist.Dims) != len(b.dist.Dims) {
		return 0, fmt.Errorf("ga: Dot: rank mismatch")
	}
	for d := range a.dist.Dims {
		if a.dist.Dims[d] != b.dist.Dims[d] {
			return 0, fmt.Errorf("ga: Dot: extent mismatch in dim %d", d)
		}
	}
	local := 0.0
	if idx := a.myOwnerIdx(); idx >= 0 && idx < a.dist.OwnerCount() {
		lo, hi, ok := a.dist.Block(idx)
		if ok {
			n := a.reqLen(lo, hi)
			av := make([]float64, n)
			bv := make([]float64, n)
			if err := a.Get(lo, hi, av); err != nil {
				return 0, err
			}
			if err := b.Get(lo, hi, bv); err != nil {
				return 0, err
			}
			for i := range av {
				local += av[i] * bv[i]
			}
		}
	}
	out := a.env.GopF64(mpi.OpSum, []float64{local})
	return out[0], nil
}

// Norm2 returns the Frobenius norm of the array; collective.
func (a *Array) Norm2() (float64, error) {
	d, err := Dot(a, a)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d), nil
}

// MaxElem returns the largest absolute element value and its
// subscripts (GA_Select_elem with "max"); collective.
func (a *Array) MaxElem() (float64, []int, error) {
	best := math.Inf(-1)
	var bestIdx []int
	if idx := a.myOwnerIdx(); idx >= 0 && idx < a.dist.OwnerCount() {
		blk, err := a.Access()
		if err != nil {
			return 0, nil, err
		}
		d := blk.Dims()
		for i, e := range blk.F64s() {
			v := math.Abs(e)
			if v > best {
				best = v
				// Unflatten i into block-relative then global indices.
				rem := i
				bestIdx = make([]int, len(d))
				for dd := len(d) - 1; dd >= 0; dd-- {
					bestIdx[dd] = rem%d[dd] + blk.Lo[dd]
					rem /= d[dd]
				}
			}
		}
		if err := blk.Release(); err != nil {
			return 0, nil, err
		}
	}
	// Reduce (value, flattened index) pairs: max on value, with the
	// winner's coordinates broadcast by encoding them alongside.
	nd := len(a.dist.Dims)
	enc := make([]float64, 1+nd)
	enc[0] = best
	for d := 0; d < nd; d++ {
		if bestIdx != nil {
			enc[1+d] = float64(bestIdx[d])
		} else {
			enc[1+d] = -1
		}
	}
	// Owner of the global max wins: allgather and scan (world order
	// breaks ties deterministically).
	flat := a.env.Mpi.CommWorld().Allgather(mpi.F64sToBytes(enc))
	winVal := math.Inf(-1)
	var winIdx []int
	for _, part := range flat {
		dec := mpi.BytesToF64s(part)
		if len(dec) != 1+nd {
			continue
		}
		if dec[0] > winVal {
			winVal = dec[0]
			winIdx = make([]int, nd)
			for d := 0; d < nd; d++ {
				winIdx[d] = int(dec[1+d])
			}
		}
	}
	return winVal, winIdx, nil
}
