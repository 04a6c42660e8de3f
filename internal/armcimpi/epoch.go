package armcimpi

import (
	"repro/internal/mpi"
)

// epochCtl abstracts the two access-epoch disciplines:
//
//   - MPI-2 (the paper's shipping design): every operation inside its
//     own shared/exclusive lock epoch — Lock, op, Unlock.
//   - MPI-3 (SectionVIII.B, the design the paper's gaps motivated and
//     later ARMCI-MPI releases adopted): windows held in lock-all mode,
//     per-target flush for remote completion; conflicting accesses are
//     undefined rather than erroneous, and on coherent systems no
//     staging or exclusive locking is needed. Puts and accumulates are
//     the plain calls, completed by end's Flush; a get is RGet+Wait,
//     which returns when that get's reply has landed, so end skips the
//     flush for it. A plain Get completed by Flush would instead pay the
//     flush's overhead and round trip and wait out every other operation
//     outstanding to the target: different virtual time, never measured.
type epochCtl struct {
	r     *Runtime
	g     *GMR
	gr    int
	win   *mpi.Win
	class OpClass
	mpi3  bool
}

// beginEpoch opens the access discipline for one target. The control
// block is a value: the executor holds it while the epoch is open.
func (r *Runtime) beginEpoch(g *GMR, gr int, class OpClass) (epochCtl, error) {
	win := g.Ext.wins[r.Rank()]
	e := epochCtl{r: r, g: g, gr: gr, win: win, class: class, mpi3: r.Opt.UseMPI3}
	if e.mpi3 {
		return e, r.ensureLockAll(win)
	}
	return e, win.Lock(lockType(g, class), gr)
}

// ensureLockAll opens (once per window handle) the MPI-3 lock-all mode.
func (r *Runtime) ensureLockAll(win *mpi.Win) error {
	if win.LockedAll() {
		return nil
	}
	return win.LockAll()
}

// put issues one put within the epoch. Under MPI-3 it is the plain call
// in lock-all mode: end's flush completes it, and only then is the
// origin the caller's again.
func (e *epochCtl) put(buf mpi.LocalBuf, disp int, t mpi.Datatype) error {
	return e.win.Put(buf, e.gr, disp, t)
}

// get issues one get within the epoch.
func (e *epochCtl) get(buf mpi.LocalBuf, disp int, t mpi.Datatype) error {
	if e.mpi3 {
		req, err := e.win.RGet(buf, e.gr, disp, t)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	}
	return e.win.Get(buf, e.gr, disp, t)
}

// acc issues one accumulate within the epoch, completed by end as put
// is.
func (e *epochCtl) acc(buf mpi.LocalBuf, disp int, t mpi.Datatype) error {
	return e.win.Accumulate(buf, mpi.OpSum, e.gr, disp, t)
}

// end closes the epoch: Unlock (MPI-2, local+remote completion) or a
// per-target flush (MPI-3; gets already completed at Wait).
func (e *epochCtl) end() error {
	if e.mpi3 {
		if e.class == ClassGet {
			return nil
		}
		return e.win.Flush(e.gr)
	}
	return e.win.Unlock(e.gr)
}

// ensureNoLockAll closes lock-all before operations that need the
// window quiesced (window free).
func (r *Runtime) ensureNoLockAll(win *mpi.Win) error {
	if win.LockedAll() {
		return win.UnlockAll()
	}
	return nil
}
