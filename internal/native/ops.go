package native

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// segOverheadNs is the tuned per-segment CPU cost of the native strided
// pipeline (descriptor chaining on the NIC).
const segOverheadNs = 120

// noteRemote records the remote-completion horizon of an operation to
// target for ARMCI_Fence.
func (r *Runtime) noteRemote(target int, at sim.Time) {
	if r.w.lastRemote[r.Rank()][target] < at {
		r.w.lastRemote[r.Rank()][target] = at
	}
}

// handle implements armci.Handle: done is set by the completion event.
type handle struct {
	r       *Runtime
	done    bool
	waiting bool
}

func newHandle(r *Runtime, done bool) *handle { return &handle{r: r, done: done} }

func (h *handle) complete() {
	h.done = true
	if h.waiting {
		h.waiting = false
		h.r.w.M.Eng.Unpark(h.r.p)
	}
}

// Wait blocks until the operation is locally complete.
func (h *handle) Wait() {
	for !h.done {
		h.waiting = true
		h.r.p.Park("native.Wait")
	}
}

// Test reports local completion without blocking.
func (h *handle) Test() bool { return h.done }

// Put copies n bytes from the local src to the global dst; blocking
// local completion (the data has left the source buffer).
func (r *Runtime) Put(src, dst armci.Addr, n int) error {
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	if src.Rank != r.Rank() {
		return fmt.Errorf("native: Put source %v is not local to rank %d", src, r.Rank())
	}
	r.opCost()
	sreg, err := r.region(src, n)
	if err != nil {
		return err
	}
	dreg, err := r.region(dst, n)
	if err != nil {
		return err
	}
	m := r.w.M
	data := m.GetBuf(n) // snapshot at issue; the arrival event returns it
	copy(data, sreg.Bytes(src.VA, n))
	arrive := m.SendDataAsync(r.Rank(), dst.Rank, n, fabric.XferOpt{Rate: r.rate(sreg)})
	dstVA := dst.VA
	m.Eng.At(arrive, func() {
		copy(dreg.Bytes(dstVA, n), data)
		m.PutBuf(data)
	})
	r.noteRemote(dst.Rank, arrive)
	r.w.BytesMoved += int64(n)
	r.w.Segments++
	return nil
}

// Get copies n bytes from the global src into the local dst; blocking.
func (r *Runtime) Get(src, dst armci.Addr, n int) error {
	h, err := r.NbGet(src, dst, n)
	if err != nil {
		return err
	}
	h.Wait()
	return nil
}

// Acc applies dst += scale*src on float64 elements; blocking local
// completion, remote completion under Fence.
func (r *Runtime) Acc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) error {
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	if n%8 != 0 {
		return fmt.Errorf("native: Acc size %d not a multiple of 8 (float64)", n)
	}
	r.opCost()
	sreg, err := r.region(src, n)
	if err != nil {
		return err
	}
	dreg, err := r.region(dst, n)
	if err != nil {
		return err
	}
	m := r.w.M
	data := m.GetBuf(n) // scaled snapshot at issue
	mpi.ScaleBytesF64(data, sreg.Bytes(src.VA, n), scale)
	arrive := m.SendDataAsync(r.Rank(), dst.Rank, n, fabric.XferOpt{Rate: r.rate(sreg)})
	// The helper-thread/NIC agent applies the reduction serially.
	accRate := m.Par.AccumRate
	if r.w.Tun.AccumRate > 0 {
		accRate = r.w.Tun.AccumRate
	}
	start := arrive
	if b := r.w.agentBusy[dst.Rank]; b > start {
		start = b
	}
	done := start + sim.FromSeconds(float64(n)/accRate)
	r.w.agentBusy[dst.Rank] = done
	dstVA := dst.VA
	m.Eng.At(done, func() {
		mpi.ReduceBytesF64(mpi.OpSum, dreg.Bytes(dstVA, n), data)
		m.PutBuf(data)
	})
	r.noteRemote(dst.Rank, done)
	r.w.BytesMoved += int64(n)
	r.w.Segments++
	return nil
}

// NbPut issues a put and returns immediately; Wait gives local
// completion (immediate for the buffered native pipeline).
func (r *Runtime) NbPut(src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := r.Put(src, dst, n); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}

// NbGet issues a get; Wait blocks until the data has arrived in the
// local buffer.
func (r *Runtime) NbGet(src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := armci.CheckContig(src, dst, n); err != nil {
		return nil, err
	}
	if dst.Rank != r.Rank() {
		return nil, fmt.Errorf("native: Get destination %v is not local to rank %d", dst, r.Rank())
	}
	r.opCost()
	sreg, err := r.region(src, n)
	if err != nil {
		return nil, err
	}
	dreg, err := r.region(dst, n)
	if err != nil {
		return nil, err
	}
	m := r.w.M
	h := newHandle(r, false)
	rate := r.rate(dreg)
	me := r.Rank()
	dstVA := dst.VA
	srcVA := src.VA
	req := m.SendDataAsync(me, src.Rank, 0, fabric.XferOpt{NoNIC: true})
	m.Eng.At(req, func() {
		data := m.GetBuf(n)
		copy(data, sreg.Bytes(srcVA, n))
		back := m.SendDataAsync(src.Rank, me, n, fabric.XferOpt{Rate: rate})
		m.Eng.At(back, func() {
			copy(dreg.Bytes(dstVA, n), data)
			m.PutBuf(data)
			h.complete()
		})
	})
	r.w.BytesMoved += int64(n)
	r.w.Segments++
	return h, nil
}

// NbAcc issues an accumulate; the native pipeline buffers the scaled
// source at issue, so local completion is immediate.
func (r *Runtime) NbAcc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := r.Acc(op, scale, src, dst, n); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}
