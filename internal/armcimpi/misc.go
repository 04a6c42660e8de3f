package armcimpi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs/profile"
)

// AccessBegin initiates direct load/store access to local data within
// a GMR — the paper's DLA extension (SectionV.E). An exclusive-mode
// epoch on the local window slice is held until AccessEnd, so remote
// accesses cannot observe or corrupt a partially updated private copy.
func (r *Runtime) AccessBegin(addr armci.Addr, n int) ([]byte, error) {
	if addr.Rank != r.Rank() {
		return nil, fmt.Errorf("armcimpi: AccessBegin on remote address %v", addr)
	}
	g, gr, _, ok := r.W.dir.Find(addr)
	if !ok {
		return nil, fmt.Errorf("armcimpi: AccessBegin: %v is not in any GMR", addr)
	}
	if _, open := r.dla[addr.VA]; open {
		return nil, fmt.Errorf("armcimpi: AccessBegin: %v already open", addr)
	}
	win := g.Ext.wins[r.Rank()]
	if r.Opt.UseMPI3 {
		// Lock-all stays open; quiesce this origin's pending operations
		// and rely on coherence for direct access (how later ARMCI-MPI
		// releases implement DLA on MPI-3).
		if err := r.ensureLockAll(win); err != nil {
			return nil, err
		}
		if err := win.FlushAll(); err != nil {
			return nil, err
		}
	} else if err := win.Lock(mpi.LockExclusive, gr); err != nil {
		return nil, err
	}
	r.dla[addr.VA] = dlaSection{g: g, n: n}
	reg := r.W.Mpi.M.Space(r.Rank()).Find(addr.VA, n)
	if reg == nil {
		return nil, fmt.Errorf("armcimpi: AccessBegin: %v(+%d) out of bounds", addr, n)
	}
	return reg.Bytes(addr.VA, n), nil
}

// AccessEnd completes a direct access section, releasing the exclusive
// self-lock (and with it, publishing the private copy).
func (r *Runtime) AccessEnd(addr armci.Addr) error {
	sec, open := r.dla[addr.VA]
	if !open {
		return fmt.Errorf("armcimpi: AccessEnd without AccessBegin at %v", addr)
	}
	delete(r.dla, addr.VA)
	if r.Opt.UseMPI3 {
		return nil // lock-all stays open; coherence publishes the stores
	}
	gr := sec.g.RankOf(r.Rank())
	return sec.g.Ext.wins[r.Rank()].Unlock(gr)
}

// SetAccessMode installs the SectionVIII.A access-mode hint on the
// allocation containing addr. Collective over the GMR's group: all
// processes must agree on the phase change, and in-flight conflicting
// operations must be complete.
func (r *Runtime) SetAccessMode(mode armci.AccessMode, addr armci.Addr) error {
	g, _, _, ok := r.W.dir.Find(addr)
	if !ok {
		return fmt.Errorf("armcimpi: SetAccessMode: %v is not in any GMR", addr)
	}
	// Fence is free (SectionV.F); the barrier orders the phase change.
	r.Barrier()
	g.Ext.mode = mode
	r.Barrier()
	return nil
}

// Rmw performs an atomic read-modify-write. MPI 2.2 has no atomic
// fetch-and-op and a get+put pair conflicts within one epoch, so the
// operation takes the GMR's mutex and uses two epochs — read and write
// (SectionV.D). With UseMPI3, a single fetch-and-op inside one epoch
// is used instead (SectionVIII.B's extension).
func (r *Runtime) Rmw(op armci.RmwOp, addr armci.Addr, operand int64) (int64, error) {
	r.obs().OpBegin(r.Rank(), profile.OpRmw)
	defer r.obs().OpEnd(r.Rank())
	if addr.Nil() {
		return 0, fmt.Errorf("armcimpi: Rmw on NULL address")
	}
	if !op.Valid() {
		return 0, fmt.Errorf("armcimpi: unknown RMW op %v", op)
	}
	g, gr, disp, err := r.remote(addr, 8)
	if err != nil {
		return 0, err
	}
	win := g.Ext.wins[r.Rank()]
	if r.Opt.UseMPI3 {
		// SectionVIII.B: a single atomic fetch-and-op under lock-all —
		// no lock round trips, no mutex.
		if err := r.ensureLockAll(win); err != nil {
			return 0, err
		}
		mop := mpi.OpSum
		if op == armci.Swap {
			mop = mpi.OpReplace
		}
		old, err := win.FetchAndOp(mop, operand, gr, disp)
		if err != nil {
			return 0, err
		}
		return old, nil
	}
	// MPI-2 path: mutex + read epoch + write epoch. The mutex is
	// released on every return, so a failed epoch leaves the GMR usable.
	mux := g.Ext.mutex[r.Rank()]
	mux.Lock(0, addr.Rank)
	defer mux.Unlock(0, addr.Rank)
	word := mpi.LocalBuf{Region: r.rmwScratch(), Type: mpi.TypeContiguous(8)}
	if err := win.Lock(mpi.LockExclusive, gr); err != nil {
		return 0, err
	}
	if err := win.Get(word, gr, disp, word.Type); err != nil {
		return 0, err
	}
	if err := win.Unlock(gr); err != nil {
		return 0, err
	}
	b := word.Region.Backing()
	old := int64(binary.LittleEndian.Uint64(b))
	nv := old + operand
	if op == armci.Swap {
		nv = operand
	}
	binary.LittleEndian.PutUint64(b, uint64(nv))
	if err := win.Lock(mpi.LockExclusive, gr); err != nil {
		return 0, err
	}
	if err := win.Put(word, gr, disp, word.Type); err != nil {
		return 0, err
	}
	if err := win.Unlock(gr); err != nil {
		return 0, err
	}
	return old, nil
}

// rmwScratch is the MPI-2 Rmw's 8-byte origin buffer, allocated by the
// runtime's first one and reused by every later one: the word is
// written by the read epoch's get before anything reads it.
func (r *Runtime) rmwScratch() *fabric.Region {
	if r.rmwBuf == nil {
		r.rmwBuf = r.R.AllocMem(8)
	}
	return r.rmwBuf
}

// GroupCreateCollective creates an ARMCI processor group; all world
// processes call (non-members receive nil).
func (r *Runtime) GroupCreateCollective(members []int) (*armci.Group, error) {
	return armci.GroupCreateCollective(r.R, members)
}

// GroupCreate creates a group noncollectively — only members call.
func (r *Runtime) GroupCreate(members []int) (*armci.Group, error) {
	return armci.GroupCreate(r.R, members)
}

// LocalBytes exposes local buffer memory on the calling process. For
// addresses inside a GMR the DLA calls must be used instead.
func (r *Runtime) LocalBytes(addr armci.Addr, n int) ([]byte, error) {
	if addr.Rank != r.Rank() {
		return nil, fmt.Errorf("armcimpi: LocalBytes on remote address %v", addr)
	}
	reg := r.W.Mpi.M.Space(r.Rank()).Find(addr.VA, n)
	if reg == nil {
		return nil, fmt.Errorf("armcimpi: LocalBytes: %v(+%d) not in any allocation", addr, n)
	}
	return reg.Bytes(addr.VA, n), nil
}
