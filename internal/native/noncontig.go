package native

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// resolveStrided expands a strided descriptor into segments, resolving
// regions once per side (a strided transfer stays within one region on
// each side).
func (r *Runtime) resolveStrided(s *armci.Strided) ([]armci.Seg, int, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	sreg, err := r.region(s.Src, s.SrcSpan())
	if err != nil {
		return nil, 0, fmt.Errorf("native: strided src: %w", err)
	}
	dreg, err := r.region(s.Dst, s.DstSpan())
	if err != nil {
		return nil, 0, fmt.Errorf("native: strided dst: %w", err)
	}
	segs := make([]armci.Seg, 0, s.Segments())
	s.Iterate(func(so, do int) {
		segs = append(segs, armci.Seg{
			SrcVA: s.Src.VA + int64(so), DstVA: s.Dst.VA + int64(do),
			Sreg: sreg, Dreg: dreg, N: s.SegBytes(),
		})
	})
	return segs, s.Segments(), nil
}

// resolveIOV expands IOV descriptors into segments.
func (r *Runtime) resolveIOV(iov []armci.GIOV, proc int, remoteIsSrc bool) ([]armci.Seg, error) {
	if err := armci.ValidateIOV(iov, proc, remoteIsSrc); err != nil {
		return nil, err
	}
	var segs []armci.Seg
	for gi := range iov {
		g := &iov[gi]
		for i := range g.Src {
			sreg, err := r.region(g.Src[i], g.Bytes)
			if err != nil {
				return nil, fmt.Errorf("native: iov src seg %d: %w", i, err)
			}
			dreg, err := r.region(g.Dst[i], g.Bytes)
			if err != nil {
				return nil, fmt.Errorf("native: iov dst seg %d: %w", i, err)
			}
			segs = append(segs, armci.Seg{
				SrcVA: g.Src[i].VA, DstVA: g.Dst[i].VA,
				Sreg: sreg, Dreg: dreg, N: g.Bytes,
			})
		}
	}
	return segs, nil
}

// putSegs is the tuned native noncontiguous put/acc pipeline: one
// operation setup, per-segment descriptor cost, a single pipelined NIC
// occupancy for the full payload, segment scatter at arrival.
func (r *Runtime) putSegs(segs []armci.Seg, target int, accumulate bool, scale float64) error {
	if len(segs) == 0 {
		return nil
	}
	r.opCost()
	r.p.Elapse(sim.FromSeconds(float64(len(segs)) * segOverheadNs / 1e9))
	total := 0
	var local *fabric.Region
	for _, sg := range segs {
		total += sg.N
		local = sg.Sreg
	}
	m := r.w.M
	slab := armci.Gather(m, segs, total, scale)
	arrive := m.SendDataAsync(r.Rank(), target, total, fabric.XferOpt{Rate: r.rate(local)})
	done := arrive
	if accumulate {
		accRate := m.Par.AccumRate
		if r.w.Tun.AccumRate > 0 {
			accRate = r.w.Tun.AccumRate
		}
		start := arrive
		if b := r.w.agentBusy[target]; b > start {
			start = b
		}
		done = start + sim.FromSeconds(float64(total)/accRate)
		r.w.agentBusy[target] = done
	}
	m.Eng.At(done, func() { armci.Scatter(m, segs, slab, accumulate) })
	r.noteRemote(target, done)
	r.w.BytesMoved += int64(total)
	r.w.Segments += int64(len(segs))
	return nil
}

// getSegs is the native noncontiguous get pipeline.
func (r *Runtime) getSegs(segs []armci.Seg, target int) (armci.Handle, error) {
	if len(segs) == 0 {
		return newHandle(r, true), nil
	}
	r.opCost()
	r.p.Elapse(sim.FromSeconds(float64(len(segs)) * segOverheadNs / 1e9))
	total := 0
	var local *fabric.Region
	for _, sg := range segs {
		total += sg.N
		local = sg.Dreg
	}
	m := r.w.M
	h := newHandle(r, false)
	me := r.Rank()
	rate := r.rate(local)
	req := m.SendDataAsync(me, target, 0, fabric.XferOpt{NoNIC: true})
	m.Eng.At(req, func() {
		slab := armci.Gather(m, segs, total, 1)
		back := m.SendDataAsync(target, me, total, fabric.XferOpt{Rate: rate})
		m.Eng.At(back, func() {
			armci.Scatter(m, segs, slab, false)
			h.complete()
		})
	})
	r.w.BytesMoved += int64(total)
	r.w.Segments += int64(len(segs))
	return h, nil
}

// PutS performs a blocking strided put (Table I notation).
func (r *Runtime) PutS(s *armci.Strided) error {
	segs, _, err := r.resolveStrided(s)
	if err != nil {
		return err
	}
	if s.Src.Rank != r.Rank() {
		return fmt.Errorf("native: PutS source on rank %d, not local", s.Src.Rank)
	}
	return r.putSegs(segs, s.Dst.Rank, false, 1)
}

// GetS performs a blocking strided get.
func (r *Runtime) GetS(s *armci.Strided) error {
	h, err := r.NbGetS(s)
	if err != nil {
		return err
	}
	h.Wait()
	return nil
}

// AccS performs a blocking strided accumulate (dst += scale*src).
func (r *Runtime) AccS(op armci.AccOp, scale float64, s *armci.Strided) error {
	segs, _, err := r.resolveStrided(s)
	if err != nil {
		return err
	}
	if s.SegBytes()%8 != 0 {
		return fmt.Errorf("native: AccS segment size %d not float64-aligned", s.SegBytes())
	}
	return r.putSegs(segs, s.Dst.Rank, true, scale)
}

// NbPutS is the nonblocking strided put.
func (r *Runtime) NbPutS(s *armci.Strided) (armci.Handle, error) {
	if err := r.PutS(s); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}

// NbGetS is the nonblocking strided get.
func (r *Runtime) NbGetS(s *armci.Strided) (armci.Handle, error) {
	segs, _, err := r.resolveStrided(s)
	if err != nil {
		return nil, err
	}
	if s.Dst.Rank != r.Rank() {
		return nil, fmt.Errorf("native: GetS destination on rank %d, not local", s.Dst.Rank)
	}
	return r.getSegs(segs, s.Src.Rank)
}

// NbAccS is the nonblocking strided accumulate; the pipeline buffers
// the source at issue, so local completion is immediate.
func (r *Runtime) NbAccS(op armci.AccOp, scale float64, s *armci.Strided) (armci.Handle, error) {
	if err := r.AccS(op, scale, s); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}

// PutV performs a generalized I/O vector put to proc.
func (r *Runtime) PutV(iov []armci.GIOV, proc int) error {
	segs, err := r.resolveIOV(iov, proc, false)
	if err != nil {
		return err
	}
	return r.putSegs(segs, proc, false, 1)
}

// GetV performs a generalized I/O vector get from proc.
func (r *Runtime) GetV(iov []armci.GIOV, proc int) error {
	segs, err := r.resolveIOV(iov, proc, true)
	if err != nil {
		return err
	}
	h, err := r.getSegs(segs, proc)
	if err != nil {
		return err
	}
	h.Wait()
	return nil
}

// AccV performs a generalized I/O vector accumulate to proc.
func (r *Runtime) AccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) error {
	segs, err := r.resolveIOV(iov, proc, false)
	if err != nil {
		return err
	}
	for i := range iov {
		if iov[i].Bytes%8 != 0 {
			return fmt.Errorf("native: AccV segment size %d not float64-aligned", iov[i].Bytes)
		}
	}
	return r.putSegs(segs, proc, true, scale)
}

// NbPutV is the nonblocking I/O vector put (locally complete at issue).
func (r *Runtime) NbPutV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := r.PutV(iov, proc); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}

// NbGetV is the nonblocking I/O vector get; Wait blocks until every
// segment has landed.
func (r *Runtime) NbGetV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	segs, err := r.resolveIOV(iov, proc, true)
	if err != nil {
		return nil, err
	}
	return r.getSegs(segs, proc)
}

// NbAccV is the nonblocking I/O vector accumulate (locally complete at
// issue).
func (r *Runtime) NbAccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := r.AccV(op, scale, iov, proc); err != nil {
		return nil, err
	}
	return newHandle(r, true), nil
}
