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

// Put copies n bytes from the local src to the global dst. Because
// each operation completes within its own epoch, the call is both
// locally and remotely complete on return (SectionV.F).
func (r *Runtime) Put(src, dst armci.Addr, n int) error {
	t0 := r.R.P.Now()
	r.obs().OpBegin(r.Rank(), profile.OpPut)
	defer r.obs().OpEnd(r.Rank())
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	rt := r.decide(RouteRequest{Class: ClassPut, Shape: ShapeContig, Target: dst.Rank, Bytes: n})
	p, err := r.compileContig(ClassPut, 1, src, dst, n, rt)
	if err != nil {
		return err
	}
	if err := r.execute(&p); err != nil {
		return err
	}
	r.obs().OpDone(r.Rank(), profile.OpPut, t0, r.R.P.Now(), dst.Rank, n, nil)
	return nil
}

// Get copies n bytes from the global src to the local dst; the data is
// available on return.
func (r *Runtime) Get(src, dst armci.Addr, n int) error {
	t0 := r.R.P.Now()
	r.obs().OpBegin(r.Rank(), profile.OpGet)
	defer r.obs().OpEnd(r.Rank())
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	rt := r.decide(RouteRequest{Class: ClassGet, Shape: ShapeContig, Target: src.Rank, Bytes: n})
	p, err := r.compileContig(ClassGet, 1, dst, src, n, rt)
	if err != nil {
		return err
	}
	if err := r.execute(&p); err != nil {
		return err
	}
	r.obs().OpDone(r.Rank(), profile.OpGet, t0, r.R.P.Now(), src.Rank, n, nil)
	return nil
}

// Acc applies dst += scale*src elementwise on float64. ARMCI-MPI
// pre-scales into a temporary buffer (MPI accumulate has no scale
// argument) and issues MPI_Accumulate with MPI_SUM.
func (r *Runtime) Acc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) error {
	t0 := r.R.P.Now()
	r.obs().OpBegin(r.Rank(), profile.OpAcc)
	defer r.obs().OpEnd(r.Rank())
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	if n%8 != 0 {
		return fmt.Errorf("armcimpi: Acc size %d not a multiple of 8 (float64)", n)
	}
	rt := r.decide(RouteRequest{Class: ClassAcc, Shape: ShapeContig, Target: dst.Rank, Bytes: n})
	p, err := r.compileContig(ClassAcc, scale, src, dst, n, rt)
	if err != nil {
		return err
	}
	if err := r.execute(&p); err != nil {
		return err
	}
	r.obs().OpDone(r.Rank(), profile.OpAcc, t0, r.R.P.Now(), dst.Rank, n, nil)
	return nil
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
