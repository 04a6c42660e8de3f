package armcimpi

import (
	"fmt"

	"repro/internal/armci"
)

// The nonblocking surface enters the same front door as the blocking
// one (transfer, ops.go). MPI-2 has no request-based RMA operations
// (SectionVIII.B), so there every Nb operation completes before
// returning and hands back completedHandle. Under MPI-3 execNb3 issues
// the operation's plan as request-based operations, deferring local
// completion to Wait/Test and remote completion to Fence/AllFence —
// the overlap that makes per-owner fan-out aggregation (Figure 2)
// profitable.

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

// The nine nonblocking forms. Under MPI-3 a put or accumulate issues
// as an Rput or Raccumulate (prescaled when scale != 1), and a get's
// Wait blocks until the data has landed. Strided and I/O vector calls
// run the configured method.

func (r *Runtime) NbPut(src, dst armci.Addr, n int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassPut, src: src, dst: dst, n: n})
}
func (r *Runtime) NbGet(src, dst armci.Addr, n int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassGet, src: src, dst: dst, n: n})
}
func (r *Runtime) NbAcc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassAcc, scale: scale, src: src, dst: dst, n: n})
}
func (r *Runtime) NbPutS(s *armci.Strided) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassPut, shape: ShapeStrided, s: s})
}
func (r *Runtime) NbGetS(s *armci.Strided) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassGet, shape: ShapeStrided, s: s})
}
func (r *Runtime) NbAccS(op armci.AccOp, scale float64, s *armci.Strided) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassAcc, shape: ShapeStrided, scale: scale, s: s})
}
func (r *Runtime) NbPutV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassPut, shape: ShapeIOV, iov: iov, proc: proc})
}
func (r *Runtime) NbGetV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassGet, shape: ShapeIOV, iov: iov, proc: proc})
}
func (r *Runtime) NbAccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	return r.transfer(xfer{nb: true, class: ClassAcc, shape: ShapeIOV, scale: scale, iov: iov, proc: proc})
}
