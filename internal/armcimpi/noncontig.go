package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs/profile"
)

// Profiler op classification per surface shape, indexed by OpClass.
var (
	profStridedOp   = [3]profile.Op{ClassGet: profile.OpGetS, ClassPut: profile.OpPutS, ClassAcc: profile.OpAccS}
	profIOVOp       = [3]profile.Op{ClassGet: profile.OpGetV, ClassPut: profile.OpPutV, ClassAcc: profile.OpAccV}
	profNbStridedOp = [3]profile.Op{ClassGet: profile.OpNbGetS, ClassPut: profile.OpNbPutS, ClassAcc: profile.OpNbAccS}
	profNbIOVOp     = [3]profile.Op{ClassGet: profile.OpNbGetV, ClassPut: profile.OpNbPutV, ClassAcc: profile.OpNbAccV}
)

// stridedMethod resolves the configured strided strategy.
func (r *Runtime) stridedMethod() Method {
	switch r.Opt.StridedMethod {
	case MethodDirect, MethodIOVDirect, MethodBatched, MethodConservative:
		return r.Opt.StridedMethod
	case MethodAuto:
		return MethodDirect // strided descriptors cannot self-overlap
	default:
		return MethodDirect
	}
}

// PutS performs a strided put using the configured method.
func (r *Runtime) PutS(s *armci.Strided) error { return r.strided(ClassPut, 1, s) }

// GetS performs a strided get using the configured method.
func (r *Runtime) GetS(s *armci.Strided) error { return r.strided(ClassGet, 1, s) }

// AccS performs a strided accumulate (dst += scale*src).
func (r *Runtime) AccS(op armci.AccOp, scale float64, s *armci.Strided) error {
	if s.SegBytes()%8 != 0 {
		return fmt.Errorf("armcimpi: AccS segment size %d not float64-aligned", s.SegBytes())
	}
	return r.strided(ClassAcc, scale, s)
}

func (r *Runtime) strided(class OpClass, scale float64, s *armci.Strided) error {
	if err := s.Validate(); err != nil {
		return err
	}
	t0 := r.R.P.Now()
	r.obs().OpBegin(r.Rank(), profStridedOp[class])
	defer r.obs().OpEnd(r.Rank())
	target := s.Dst.Rank
	if class == ClassGet {
		target = s.Src.Rank
	}
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeStrided, Target: target, Bytes: s.TotalBytes()})
	p, err := r.compileStrided(class, scale, s, rt)
	if err != nil {
		return err
	}
	if err := r.execute(&p); err != nil {
		return err
	}
	r.obs().OpDone(r.Rank(), profStridedOp[class], t0, r.R.P.Now(), target, s.SegBytes(), rt.dec.Method)
	return nil
}

// stridedTypeCached is stridedType behind the job's small memo ring:
// repeated transfers with the same stride/count shape, from any rank,
// get the same Datatype back, so its flatten cache survives across
// operations.
func (r *Runtime) stridedTypeCached(stride, count []int) mpi.Datatype {
	w := r.W
	for i := range w.dtMemo {
		e := &w.dtMemo[i]
		if e.t != nil && eqInts(e.stride, stride) && eqInts(e.count, count) {
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

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stridedType builds the MPI datatype for one side of a strided
// transfer: the SectionVI.C subarray translation when strides nest
// evenly, an indexed type otherwise.
func stridedType(stride, count []int) mpi.Datatype {
	if sizes, subsizes, starts, ok := subarrayFor(stride, count); ok {
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

func subarrayFor(stride, count []int) (sizes, subsizes, starts []int, ok bool) {
	s := armci.Strided{SrcStride: stride, DstStride: stride, Count: count}
	return s.SrcSubarray()
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

// PutV performs a generalized I/O vector put to proc.
func (r *Runtime) PutV(iov []armci.GIOV, proc int) error {
	return r.iov(ClassPut, 1, iov, proc)
}

// GetV performs a generalized I/O vector get from proc.
func (r *Runtime) GetV(iov []armci.GIOV, proc int) error {
	return r.iov(ClassGet, 1, iov, proc)
}

// AccV performs a generalized I/O vector accumulate to proc.
func (r *Runtime) AccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) error {
	if err := checkAccIOV(iov); err != nil {
		return err
	}
	return r.iov(ClassAcc, scale, iov, proc)
}

// iovBytes is the total payload of a generalized I/O vector.
func iovBytes(iov []armci.GIOV) int {
	n := 0
	for i := range iov {
		n += len(iov[i].Src) * iov[i].Bytes
	}
	return n
}

func checkAccIOV(iov []armci.GIOV) error {
	for i := range iov {
		if iov[i].Bytes%8 != 0 {
			return fmt.Errorf("armcimpi: AccV segment size %d not float64-aligned", iov[i].Bytes)
		}
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

// iov compiles and executes an IOV operation with the routed method
// (SectionVI.A).
func (r *Runtime) iov(class OpClass, scale float64, iov []armci.GIOV, proc int) error {
	r.obs().OpBegin(r.Rank(), profIOVOp[class])
	defer r.obs().OpEnd(r.Rank())
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeIOV, Target: proc, Bytes: iovBytes(iov)})
	p, err := r.compileIOV(class, scale, iov, proc, rt)
	if err != nil {
		return err
	}
	return r.execute(&p)
}
