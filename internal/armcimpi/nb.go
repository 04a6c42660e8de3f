package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/obs/profile"
)

// The complete nonblocking surface. Under MPI-2 there are no
// request-based RMA operations (SectionVIII.B), so every Nb operation
// completes before returning and hands back completedHandle. Under
// MPI-3 the operation compiles to the same plan as its blocking
// counterpart and execNb3 issues it as request-based operations whose
// local completion is deferred to Wait/Test and whose remote
// completion is deferred to Fence/AllFence — the overlap that makes
// per-owner fan-out aggregation (Figure 2) profitable.

// completedHandle is the handle for "nonblocking" operations that
// completed before returning (the MPI-2 path). The handle is only
// constructed after Unlock returns — a handle must never report
// completion while its epoch is still open.
type completedHandle struct{}

func (completedHandle) Wait()      {}
func (completedHandle) Test() bool { return true }

// failedHandle is returned alongside the error when an immediate-mode
// nonblocking operation fails. Callers that ignore the error and Wait
// (or Test) anyway must not silently proceed on garbage data, so both
// re-raise the failure.
type failedHandle struct{ err error }

func (h failedHandle) Wait() {
	panic(fmt.Sprintf("armcimpi: Wait on failed nonblocking operation: %v", h.err))
}

func (h failedHandle) Test() bool {
	panic(fmt.Sprintf("armcimpi: Test on failed nonblocking operation: %v", h.err))
}

// nbImmediate adapts a blocking call to the MPI-2 nonblocking surface.
func nbImmediate(err error) (armci.Handle, error) {
	if err != nil {
		return failedHandle{err: err}, err
	}
	return completedHandle{}, nil
}

// NbPut issues a put. Under MPI-2 the call completes before returning;
// under MPI-3 it issues an Rput whose remote completion is deferred to
// Fence, enabling communication/computation overlap.
func (r *Runtime) NbPut(src, dst armci.Addr, n int) (armci.Handle, error) {
	r.obs().OpBegin(r.Rank(), profile.OpNbPut)
	defer r.obs().OpEnd(r.Rank())
	if !r.Opt.UseMPI3 {
		return nbImmediate(r.Put(src, dst, n))
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return nil, err
	}
	rt := r.decide(RouteRequest{Class: ClassPut, Shape: ShapeContig, Target: dst.Rank, Bytes: n})
	p, err := r.compileContig(ClassPut, 1, src, dst, n, rt)
	if err != nil {
		return nil, err
	}
	return r.execNb3(&p)
}

// NbGet issues a get; under MPI-2 it completes immediately, under
// MPI-3 the handle's Wait blocks until the data has landed.
func (r *Runtime) NbGet(src, dst armci.Addr, n int) (armci.Handle, error) {
	r.obs().OpBegin(r.Rank(), profile.OpNbGet)
	defer r.obs().OpEnd(r.Rank())
	if !r.Opt.UseMPI3 {
		return nbImmediate(r.Get(src, dst, n))
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return nil, err
	}
	rt := r.decide(RouteRequest{Class: ClassGet, Shape: ShapeContig, Target: src.Rank, Bytes: n})
	p, err := r.compileContig(ClassGet, 1, dst, src, n, rt)
	if err != nil {
		return nil, err
	}
	return r.execNb3(&p)
}

// NbAcc issues an accumulate; under MPI-2 it completes immediately,
// under MPI-3 it issues an Raccumulate (prescaled when scale != 1)
// whose remote completion is deferred to Fence.
func (r *Runtime) NbAcc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) (armci.Handle, error) {
	r.obs().OpBegin(r.Rank(), profile.OpNbAcc)
	defer r.obs().OpEnd(r.Rank())
	if !r.Opt.UseMPI3 {
		return nbImmediate(r.Acc(op, scale, src, dst, n))
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return nil, err
	}
	if n%8 != 0 {
		return nil, fmt.Errorf("armcimpi: NbAcc size %d not a multiple of 8 (float64)", n)
	}
	rt := r.decide(RouteRequest{Class: ClassAcc, Shape: ShapeContig, Target: dst.Rank, Bytes: n})
	p, err := r.compileContig(ClassAcc, scale, src, dst, n, rt)
	if err != nil {
		return nil, err
	}
	return r.execNb3(&p)
}

// NbPutS issues a strided put through the configured strided method.
func (r *Runtime) NbPutS(s *armci.Strided) (armci.Handle, error) {
	return r.nbStrided(ClassPut, 1, s)
}

// NbGetS issues a strided get through the configured strided method.
func (r *Runtime) NbGetS(s *armci.Strided) (armci.Handle, error) {
	return r.nbStrided(ClassGet, 1, s)
}

// NbAccS issues a strided accumulate through the configured method.
func (r *Runtime) NbAccS(op armci.AccOp, scale float64, s *armci.Strided) (armci.Handle, error) {
	if s.SegBytes()%8 != 0 {
		return nil, fmt.Errorf("armcimpi: NbAccS segment size %d not float64-aligned", s.SegBytes())
	}
	return r.nbStrided(ClassAcc, scale, s)
}

func (r *Runtime) nbStrided(class OpClass, scale float64, s *armci.Strided) (armci.Handle, error) {
	r.obs().OpBegin(r.Rank(), profNbStridedOp[class])
	defer r.obs().OpEnd(r.Rank())
	if !r.Opt.UseMPI3 {
		var err error
		switch class {
		case ClassPut:
			err = r.PutS(s)
		case ClassGet:
			err = r.GetS(s)
		default:
			err = r.AccS(armci.AccDbl, scale, s)
		}
		return nbImmediate(err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	target := s.Dst.Rank
	if class == ClassGet {
		target = s.Src.Rank
	}
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeStrided, Target: target, Bytes: s.TotalBytes()})
	p, err := r.compileStrided(class, scale, s, rt)
	if err != nil {
		return nil, err
	}
	return r.execNb3(&p)
}

// NbPutV issues a generalized I/O vector put to proc.
func (r *Runtime) NbPutV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	return r.nbIOV(ClassPut, 1, iov, proc)
}

// NbGetV issues a generalized I/O vector get from proc.
func (r *Runtime) NbGetV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	return r.nbIOV(ClassGet, 1, iov, proc)
}

// NbAccV issues a generalized I/O vector accumulate to proc.
func (r *Runtime) NbAccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := checkAccIOV(iov); err != nil {
		return nil, err
	}
	return r.nbIOV(ClassAcc, scale, iov, proc)
}

func (r *Runtime) nbIOV(class OpClass, scale float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	r.obs().OpBegin(r.Rank(), profNbIOVOp[class])
	defer r.obs().OpEnd(r.Rank())
	if !r.Opt.UseMPI3 {
		var err error
		switch class {
		case ClassPut:
			err = r.PutV(iov, proc)
		case ClassGet:
			err = r.GetV(iov, proc)
		default:
			err = r.AccV(armci.AccDbl, scale, iov, proc)
		}
		return nbImmediate(err)
	}
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeIOV, Target: proc, Bytes: iovBytes(iov)})
	p, err := r.compileIOV(class, scale, iov, proc, rt)
	if err != nil {
		return nil, err
	}
	return r.execNb3(&p)
}
