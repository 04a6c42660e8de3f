package armcimpi

import (
	"fmt"
	"slices"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// PutS, GetS and AccS (dst += scale*src) are the strided transfers,
// through the configured method.
func (r *Runtime) PutS(s *armci.Strided) error {
	return r.block(xfer{class: ClassPut, shape: ShapeStrided, s: s})
}
func (r *Runtime) GetS(s *armci.Strided) error {
	return r.block(xfer{class: ClassGet, shape: ShapeStrided, s: s})
}
func (r *Runtime) AccS(op armci.AccOp, scale float64, s *armci.Strided) error {
	return r.block(xfer{class: ClassAcc, shape: ShapeStrided, scale: scale, s: s})
}

// stridedTypeCached is stridedType behind the job's small memo ring:
// repeated transfers with the same stride/count shape, from any rank,
// get the same Datatype back, so its flatten cache survives across
// operations.
func (r *Runtime) stridedTypeCached(stride, count []int) mpi.Datatype {
	w := r.W
	for i := range w.dtMemo {
		e := &w.dtMemo[i]
		if e.t != nil && slices.Equal(e.stride, stride) && slices.Equal(e.count, count) {
			return e.t
		}
	}
	t := stridedType(stride, count)
	w.dtMemo[w.dtNext] = dtEntry{
		stride: append([]int(nil), stride...),
		count:  append([]int(nil), count...),
		t:      t,
	}
	w.dtNext = (w.dtNext + 1) % len(w.dtMemo)
	return t
}

// stridedType builds the MPI datatype for one side of a strided
// transfer: the SectionVI.C subarray translation when strides nest
// evenly, an indexed type otherwise.
func stridedType(stride, count []int) mpi.Datatype {
	s := armci.Strided{SrcStride: stride, DstStride: stride, Count: count}
	if sizes, subsizes, starts, ok := s.SrcSubarray(); ok {
		return mpi.TypeSubarray(sizes, subsizes, starts, 1)
	}
	// Fallback: enumerate segments (Algorithm 1) into an indexed type.
	sl := len(count) - 1
	segs := 1
	for _, c := range count[1:] {
		segs *= c
	}
	offs := make([]int, 0, segs)
	lens := make([]int, 0, segs)
	idx := make([]int, sl)
	for done := false; !done; {
		off := 0
		for i := 0; i < sl; i++ {
			off += stride[i] * idx[i]
		}
		offs = append(offs, off)
		lens = append(lens, count[0])
		done = true
		for i := 0; i < sl; i++ {
			idx[i]++
			if idx[i] < count[i+1] {
				done = false
				break
			}
			idx[i] = 0
		}
	}
	return mpi.TypeIndexed(offs, lens)
}

// prescale produces a dense temporary holding scale*src for an
// arbitrary origin datatype. Its backing is a pooled buffer drawn
// without the clearing a first touch would do, and freeTemp's Free
// hands it back like any region's.
func (r *Runtime) prescale(v *localView, baseVA int64, t mpi.Datatype, scale float64) (*fabric.Region, error) {
	n := t.Size()
	out := r.R.AllocMem(n)
	m := r.W.Mpi.M
	m.CopyLocal(r.R.P, n)
	m.Compute(r.R.P, float64(n/8))
	// src is nil (zeros) if the origin was never written.
	src := v.reg.ReadBytes(v.reg.VA+(baseVA-v.base), t.Span())
	out.Data = m.GetBuf(n) // every byte is written below
	if t.Contig() {
		mpi.ScaleBytesF64(out.Data, src, scale)
		return out, nil
	}
	// Pack through the flatten cache, scaling in the same pass.
	pos := 0
	for _, s := range mpi.Flatten(t).Segs {
		var piece []byte
		if src != nil {
			piece = src[s.Off : s.Off+s.N]
		}
		mpi.ScaleBytesF64(out.Data[pos:pos+s.N], piece, scale)
		pos += s.N
	}
	return out, nil
}

// freeTemp releases a prescale temporary once the accumulate that reads
// it is done with it: after its epoch completes, which is when a wire
// accumulate reads its origin, or any time after a request-based one,
// which snapshots it at issue.
func (r *Runtime) freeTemp(t *fabric.Region) error {
	return r.W.Mpi.M.Space(r.Rank()).Free(t.VA)
}

// PutV, GetV and AccV are the generalized I/O vector transfers to (or
// from) proc, through the configured method.
func (r *Runtime) PutV(iov []armci.GIOV, proc int) error {
	return r.block(xfer{class: ClassPut, shape: ShapeIOV, iov: iov, proc: proc})
}
func (r *Runtime) GetV(iov []armci.GIOV, proc int) error {
	return r.block(xfer{class: ClassGet, shape: ShapeIOV, iov: iov, proc: proc})
}
func (r *Runtime) AccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) error {
	return r.block(xfer{class: ClassAcc, shape: ShapeIOV, scale: scale, iov: iov, proc: proc})
}

// checkAccSeg rejects an accumulate segment that is not whole float64s.
func checkAccSeg(n int) error {
	if n%8 != 0 {
		return fmt.Errorf("armcimpi: accumulate segment size %d not float64-aligned", n)
	}
	return nil
}

// iovSeg is one segment with local/remote orientation resolved.
type iovSeg struct {
	local, remote armci.Addr
	n             int
}

// orient appends every segment of iov, oriented for class, to segs.
func orient(segs []iovSeg, iov []armci.GIOV, class OpClass) []iovSeg {
	for gi := range iov {
		g := &iov[gi]
		for i := range g.Src {
			s := iovSeg{local: g.Src[i], remote: g.Dst[i], n: g.Bytes}
			if class == ClassGet {
				s.local, s.remote = g.Dst[i], g.Src[i]
			}
			segs = append(segs, s)
		}
	}
	return segs
}

// stridedSegs appends s's segments to segs, oriented for class and in
// Algorithm 1's order: what orient makes of s.ToGIOV(), with no I/O
// vector built on the way.
func stridedSegs(segs []iovSeg, class OpClass, s *armci.Strided) []iovSeg {
	local, remote, n := s.Src, s.Dst, s.SegBytes()
	if class == ClassGet {
		local, remote = s.Dst, s.Src
	}
	s.Iterate(func(so, do int) {
		lo, ro := so, do
		if class == ClassGet {
			lo, ro = do, so
		}
		segs = append(segs, iovSeg{local: local.Add(lo), remote: remote.Add(ro), n: n})
	})
	return segs
}
