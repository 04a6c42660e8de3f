package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

type OpClass int

const (
	ClassGet OpClass = iota
	ClassPut
	ClassAcc
)

// lockType selects the epoch's lock mode for an operation against a
// GMR: exclusive by default (SectionV.C), shared when the access-mode
// hint guarantees the operation mix cannot conflict (SectionVIII.A).
func lockType(g *GMR, class OpClass) mpi.LockType {
	switch {
	case g.Ext.mode == armci.ModeReadOnly && class == ClassGet:
		return mpi.LockShared
	case g.Ext.mode == armci.ModeAccOnly && class == ClassAcc:
		return mpi.LockShared
	default:
		return mpi.LockExclusive
	}
}

// localView resolves the local side of an operation. If the local
// buffer lies inside a GMR (a "global buffer", SectionV.E.1), the data
// is staged through a temporary buffer: locking both the local and the
// remote window would either double-lock one window (forbidden) or
// risk deadlock through circular lock dependences, so the exclusive
// self-lock is taken and released before the remote epoch begins.
type localView struct {
	reg *fabric.Region
	// base is the VA that maps to offset 0 of reg: the region's own VA
	// for an unstaged view, or the original buffer's VA for a staged
	// one (the temp region mirrors the span starting there).
	base   int64
	staged bool
	// dlaOwned marks a staged span that lies inside an open AccessBegin
	// section: the exclusive self-lock is already held by the DLA
	// section, so the staging copies must not (and safely need not)
	// take it again.
	dlaOwned bool
	orig     armci.Addr
	span     int
	g        *GMR
	myRank   int // my rank in g's window
}

// dlaCovers reports whether [va, va+span) lies entirely inside an open
// AccessBegin section of the same GMR. Any-match over the open
// sections, so map iteration order does not matter.
func (r *Runtime) dlaCovers(g *GMR, va int64, span int) bool {
	for secVA, sec := range r.dla {
		if sec.g == g && va >= secVA && va+int64(span) <= secVA+int64(sec.n) {
			return true
		}
	}
	return false
}

// acquireLocal prepares [addr, addr+span) for use as the local side.
// The returned view's reg/base replace the original region/address.
// The view is returned by value so the common unstaged case stays off
// the heap.
func (r *Runtime) acquireLocal(addr armci.Addr, span int) (localView, error) {
	if addr.Rank != r.Rank() {
		return localView{}, fmt.Errorf("armcimpi: local buffer %v is not on rank %d", addr, r.Rank())
	}
	m := r.W.Mpi.M
	reg := m.Space(r.Rank()).Find(addr.VA, span)
	if reg == nil {
		return localView{}, fmt.Errorf("armcimpi: local address %v (+%d) not in any allocation", addr, span)
	}
	g, gr, _, inGMR := r.W.dir.Find(addr)
	// MPI-3 mode needs no staging: lock-all relaxes conflicting access
	// from erroneous to undefined, and the coherent-platform assumption
	// (SectionV.E.1) makes direct use safe.
	if !inGMR || r.Opt.NoStaging || r.Opt.UseMPI3 {
		return localView{reg: reg, base: reg.VA}, nil
	}
	// Stage: copy the span out under an exclusive self-lock. If the span
	// lies inside an open DLA section, that section already holds the
	// exclusive self-lock — re-locking would deadlock behind ourselves,
	// so copy directly under the section's protection instead.
	t0 := r.R.P.Now()
	tmp := r.R.AllocMem(span)
	win := g.Ext.wins[r.Rank()]
	owned := r.dlaCovers(g, addr.VA, span)
	if !owned {
		if err := win.Lock(mpi.LockExclusive, gr); err != nil {
			return localView{}, err
		}
	}
	m.CopyLocal(r.R.P, span)
	if src := reg.ReadBytes(addr.VA, span); src != nil {
		copy(tmp.Backing(), src) // a span nobody wrote stages as tmp's zeros
	}
	if !owned {
		if err := win.Unlock(gr); err != nil {
			return localView{}, err
		}
	}
	r.W.Staged++
	r.obs().Waited(obs.Wait{Kind: obs.WaitStage, Rank: r.Rank(), From: t0, To: r.R.P.Now(), N: span})
	return localView{reg: tmp, base: addr.VA, staged: true, dlaOwned: owned, orig: addr, span: span, g: g, myRank: gr}, nil
}

// release finishes with a local view; when writeBack is set (get
// operations) the staged data is copied back under a self-lock.
func (r *Runtime) release(v *localView, writeBack bool) error {
	if !v.staged {
		return nil
	}
	m := r.W.Mpi.M
	if writeBack {
		win := v.g.Ext.wins[r.Rank()]
		if !v.dlaOwned {
			if err := win.Lock(mpi.LockExclusive, v.myRank); err != nil {
				return err
			}
		}
		m.CopyLocal(r.R.P, v.span)
		orig := m.Space(r.Rank()).Find(v.orig.VA, v.span)
		copy(orig.Bytes(v.orig.VA, v.span), v.reg.Backing()[:v.span])
		if !v.dlaOwned {
			if err := win.Unlock(v.myRank); err != nil {
				return err
			}
		}
	}
	return r.W.Mpi.M.Space(r.Rank()).Free(v.reg.VA)
}

// buf builds the MPI origin buffer for the given local VA within the
// view.
func (v *localView) buf(va int64, t mpi.Datatype) mpi.LocalBuf {
	return mpi.LocalBuf{Region: v.reg, Off: int(va - v.base), Type: t}
}

// remote resolves a global address to (GMR, window rank, displacement).
func (r *Runtime) remote(addr armci.Addr, n int) (*GMR, int, int, error) {
	g, gr, disp, ok := r.W.dir.Find(addr)
	if !ok {
		return nil, 0, 0, fmt.Errorf("armcimpi: %v is not in any GMR", addr)
	}
	if disp+n > g.Sizes[gr] {
		return nil, 0, 0, fmt.Errorf("armcimpi: access %v(+%d) overruns GMR slice of %d bytes",
			addr, n, g.Sizes[gr])
	}
	return g, gr, disp, nil
}

// xfer is one transfer call as the front door sees it: its class and
// surface shape, the shape's descriptor (src, dst and n in the call's
// own order, s, or iov to proc), and whether it is nonblocking. seg
// marks a conservative plan's segment, a wire operation whose route
// was decided and counted with its descriptor.
type xfer struct {
	class    OpClass
	shape    Shape
	nb, seg  bool
	scale    float64
	src, dst armci.Addr
	n        int
	s        *armci.Strided
	iov      []armci.GIOV
	proc     int
}

// profOps names every call for the profiler, by [nonblocking][shape][class].
var profOps = [2][3][3]profile.Op{{
	ShapeContig:  {ClassGet: profile.OpGet, ClassPut: profile.OpPut, ClassAcc: profile.OpAcc},
	ShapeStrided: {ClassGet: profile.OpGetS, ClassPut: profile.OpPutS, ClassAcc: profile.OpAccS},
	ShapeIOV:     {ClassGet: profile.OpGetV, ClassPut: profile.OpPutV, ClassAcc: profile.OpAccV},
}, {
	ShapeContig:  {ClassGet: profile.OpNbGet, ClassPut: profile.OpNbPut, ClassAcc: profile.OpNbAcc},
	ShapeStrided: {ClassGet: profile.OpNbGetS, ClassPut: profile.OpNbPutS, ClassAcc: profile.OpNbAccS},
	ShapeIOV:     {ClassGet: profile.OpNbGetV, ClassPut: profile.OpNbPutV, ClassAcc: profile.OpNbAccV},
}}

// block is the front door's blocking form: the handle of a call that
// completes on return carries nothing.
func (r *Runtime) block(x xfer) error {
	_, err := r.transfer(x)
	return err
}

// transfer is the one path of every put, get and accumulate: open the
// call's profiler scope, then validate, route and compile it (prepare)
// and run the plan. Each operation completes in its own epoch
// (SectionV.F), so under MPI-2 a nonblocking call is its blocking form,
// done on return: its scope is the nonblocking op, its span the
// blocking one, and a failure comes back with a failedHandle. Under
// MPI-3 a nonblocking plan issues as request-based operations
// (SectionVIII.B) and records no span.
func (r *Runtime) transfer(x xfer) (armci.Handle, error) {
	t0 := r.R.P.Now()
	nb3 := x.nb && r.Opt.UseMPI3
	ops := &profOps[0]
	if x.nb {
		ops = &profOps[1]
	}
	r.obs().OpBegin(r.Rank(), ops[x.shape][x.class])
	defer r.obs().OpEnd(r.Rank())
	p, err := r.prepare(&x)
	switch {
	case err != nil:
	case nb3:
		return r.execNb3(&p)
	default:
		err = r.execute(&p)
	}
	if err != nil {
		if x.nb && !nb3 {
			return failedHandle{err: err}, err
		}
		return nil, err
	}
	if x.shape != ShapeIOV {
		var method fmt.Stringer
		n := x.n
		if x.shape == ShapeStrided {
			method, n = p.dec.Method, x.s.SegBytes()
		}
		r.obs().OpDone(r.Rank(), profOps[0][x.shape][x.class], t0, r.R.P.Now(), x.target(), n, method)
	}
	return completedHandle{}, nil
}

// prepare validates x, routes it (a segment keeps its wire route) and
// compiles it by shape.
func (r *Runtime) prepare(x *xfer) (plan, error) {
	if err := x.validate(); err != nil {
		return plan{}, err
	}
	req := RouteRequest{Class: x.class, Shape: x.shape, Target: x.target(), Bytes: x.bytes()}
	rt := routed{dec: RouteDecision{Route: RouteRMA, Method: MethodDirect}, bytes: req.Bytes}
	if !x.seg {
		rt = r.decide(req)
	}
	switch x.shape {
	case ShapeContig:
		local, remote := x.src, x.dst
		if x.class == ClassGet {
			local, remote = remote, local
		}
		return r.compileContig(x.class, x.scale, local, remote, x.n, rt)
	case ShapeStrided:
		return r.compileStrided(x.class, x.scale, x.s, rt)
	default:
		return r.compileIOV(x.class, x.scale, x.iov, x.proc, rt)
	}
}

// validate checks what the compilers assume: a well-formed contiguous
// or strided request, and float64-sized accumulate segments. An I/O
// vector's segments are checked as compileIOV expands them.
func (x *xfer) validate() error {
	switch {
	case x.shape == ShapeContig:
		if err := armci.CheckContig(x.src, x.dst, x.n); err != nil || x.class != ClassAcc {
			return err
		}
		return checkAccSeg(x.n)
	case x.shape == ShapeStrided:
		if err := x.s.Validate(); err != nil || x.class != ClassAcc {
			return err
		}
		return checkAccSeg(x.s.SegBytes())
	case x.class == ClassAcc:
		for i := range x.iov {
			if err := checkAccSeg(x.iov[i].Bytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// target is the remote world rank of x.
func (x *xfer) target() int {
	src, dst := x.src, x.dst
	switch x.shape {
	case ShapeStrided:
		src, dst = x.s.Src, x.s.Dst
	case ShapeIOV:
		return x.proc
	}
	if x.class == ClassGet {
		return src.Rank
	}
	return dst.Rank
}

// bytes is x's total payload.
func (x *xfer) bytes() int {
	switch x.shape {
	case ShapeContig:
		return x.n
	case ShapeStrided:
		return x.s.TotalBytes()
	}
	n := 0
	for i := range x.iov {
		n += len(x.iov[i].Src) * x.iov[i].Bytes
	}
	return n
}

// Put copies n bytes from the local src to the global dst. Because
// each operation completes within its own epoch, the call is both
// locally and remotely complete on return (SectionV.F).
func (r *Runtime) Put(src, dst armci.Addr, n int) error {
	return r.block(xfer{class: ClassPut, src: src, dst: dst, n: n})
}

// Get copies n bytes from the global src to the local dst; the data is
// available on return.
func (r *Runtime) Get(src, dst armci.Addr, n int) error {
	return r.block(xfer{class: ClassGet, src: src, dst: dst, n: n})
}

// Acc applies dst += scale*src elementwise on float64. ARMCI-MPI
// pre-scales into a temporary buffer (MPI accumulate has no scale
// argument) and issues MPI_Accumulate with MPI_SUM.
func (r *Runtime) Acc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) error {
	return r.block(xfer{class: ClassAcc, scale: scale, src: src, dst: dst, n: n})
}

// Fence ensures remote completion of prior operations to proc. Under
// MPI-2 it is a no-op — every operation completes within its own epoch
// (SectionV.F). Under MPI-3 it flushes only the windows with pending
// request-based operations targeting proc: a per-target flush, not a
// FlushAll, so fencing one target does not pay for (or complete) the
// outstanding traffic to every other target.
func (r *Runtime) Fence(proc int) {
	if !r.Opt.UseMPI3 || len(r.pending) == 0 {
		return
	}
	for _, win := range append([]*mpi.Win(nil), r.pendingOrder...) {
		if win == nil {
			continue // tombstoned by an earlier dropPending
		}
		ent := r.pending[win]
		gr := win.Comm().RankOfWorld(proc)
		if ent == nil || gr < 0 || !ent.targets[gr] {
			continue
		}
		if err := win.Flush(gr); err != nil {
			panic(fmt.Sprintf("armcimpi: fence flush failed: %v", err))
		}
		delete(ent.targets, gr)
		if len(ent.targets) == 0 {
			r.dropPending(win)
		}
	}
}

// AllFence fences every target.
func (r *Runtime) AllFence() {
	if !r.Opt.UseMPI3 || len(r.pending) == 0 {
		return
	}
	for _, win := range r.pendingOrder {
		if win == nil {
			continue
		}
		if err := win.FlushAll(); err != nil {
			panic(fmt.Sprintf("armcimpi: fence flush failed: %v", err))
		}
	}
	r.pending = map[*mpi.Win]*pendingOps{}
	r.pendingOrder = nil
	r.pendingDead = 0
}

// Barrier synchronizes all processes. Outstanding nonblocking
// operations are fenced first so the barrier provides the usual
// "all prior communication is remotely complete" guarantee; with
// nothing pending (always the case under MPI-2, where every operation
// completes in its own epoch) the fence is free.
func (r *Runtime) Barrier() {
	r.AllFence()
	r.R.CommWorld().Barrier()
}
