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
//     request-based operations, per-target flush for remote completion;
//     conflicting accesses are undefined rather than erroneous, and on
//     coherent systems no staging or exclusive locking is needed.
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

// put issues one put within the epoch.
func (e *epochCtl) put(buf mpi.LocalBuf, disp int, t mpi.Datatype) error {
	if e.mpi3 {
		req, err := e.win.RPut(buf, e.gr, disp, t)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	}
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

// acc issues one accumulate within the epoch.
func (e *epochCtl) acc(buf mpi.LocalBuf, disp int, t mpi.Datatype) error {
	if e.mpi3 {
		req, err := e.win.RAccumulate(buf, mpi.OpSum, e.gr, disp, t)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	}
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
