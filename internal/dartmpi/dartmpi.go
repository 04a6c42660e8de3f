// Package dartmpi is a locality-aware dual-window ARMCI runtime in the
// style of DART-MPI ("DART-MPI: An MPI-based Implementation of a PGAS
// Runtime System" and "Leveraging MPI-3 Shared-Memory Extensions for
// Efficient PGAS Runtime Systems"). Where armcimpi treats every target
// uniformly over MPI RMA, dartmpi allocates every ARMCI segment twice
// over: once through the armcimpi GMR layer (the inter-node RMA window,
// created with plain MPI_Win_create) and once as a node-local
// MPI_Win_allocate_shared window spanning the ranks of the caller's
// node. A translation table maps <rank, offset> to the right window,
// and a locality classifier picks a tier per operation:
//
//	self      - direct load/store on the caller's own memory
//	same-node - one shared-memory window epoch (lock, shm copy, unlock)
//	remote    - the engine's RMA transfer plans, large transfers
//	            staged through the node-leader rank (hierarchical
//	            put/get behind a per-node staging pipe)
//
// The runtime itself is the armcimpi transfer-plan engine: dartmpi
// embeds armcimpi.Runtime and contributes exactly two things — this
// file's dual-window allocation bookkeeping, and the RoutePolicy in
// policy.go that the engine consults once per operation. The engine's
// plan compiler and executor carry every tier out (self-copy and
// node-window epochs are plan kinds, leader staging is a plan
// prologue), so strided/IOV compilation, batching, conflict scanning,
// epochs, fences, mutexes, RMW, groups, and access modes are shared,
// not forked. The engine's own options have NoShm forced on, keeping
// the wire tier pure RMA; the user's NoShm lives in the policy, which
// collapses every decision onto that wire path.
package dartmpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// DefaultStageThreshold is the smallest remote transfer, in bytes,
// staged through the node leader when Options.StageThreshold is 0.
const DefaultStageThreshold = 8192

// World is the shared state of the dartmpi job: the node-window
// translation table plus the wrapped armcimpi world that owns the
// inter-node RMA windows.
type World struct {
	Mpi   *mpi.World
	Inner *armcimpi.World

	// dir records each collective allocation a second time, with the
	// same membership metadata armcimpi keeps for its GMR: the entry's
	// extension is each member's handle of its node-local shared
	// window, by world rank.
	dir armci.Directory[map[int]*mpi.Win]

	// testAttachFault, when set, is invoked at the top of attachNodeWin
	// and its error returned as if window creation failed — the
	// error-injection point for the Malloc cleanup tests. Tests must set
	// it so every rank of the collective fails alike.
	testAttachFault func(bytes int) error

	// Counters, updated by the policy's Staged hook.
	Staged      int64 // remote transfers staged through the node leader
	StagedBytes int64 // bytes copied through leader staging buffers
}

// NewWorld creates dartmpi state on an MPI world. The inner armcimpi
// world shares the same MPI world, so collectives, observability, and
// the fabric are common to both layers.
func NewWorld(mw *mpi.World) *World {
	return &World{Mpi: mw, Inner: armcimpi.NewWorld(mw)}
}

// NumAllocs returns the number of live node-window allocations
// (diagnostics and leak tests).
func (w *World) NumAllocs() int { return w.dir.Len() }

// SetAttachFault installs (or, with nil, clears) the error-injection
// hook invoked at the top of attachNodeWin. Test hook: the fault is
// shared world state, so every rank of a collective fails alike.
func (w *World) SetAttachFault(f func(bytes int) error) { w.testAttachFault = f }

// Runtime is one rank's dartmpi handle: the shared transfer-plan
// engine itself, steered by the dart routing policy. Every ARMCI
// operation — contiguous, strided, IOV, blocking, nonblocking — is the
// promoted engine method; only allocation (the dual-window pair) and
// the policy are dartmpi's own.
type Runtime struct {
	*armcimpi.Runtime

	W *World
	// Opt holds the user's options. The embedded engine runs with NoShm
	// forced on (the wire tier is pure RMA); the policy consults this
	// copy for the user's NoShm, NoLeaderStaging, and StageThreshold.
	Opt armcimpi.Options
}

// New creates the per-rank dartmpi runtime handle: the shared engine
// with NoShm forced on (dartmpi owns the shared-memory tiers) and the
// dart routing policy installed. Under the user's own NoShm the policy
// collapses every decision onto the wire path.
func New(w *World, r *mpi.Rank, opt armcimpi.Options) *Runtime {
	engineOpt := opt
	engineOpt.NoShm = true
	rt := &Runtime{Runtime: armcimpi.New(w.Inner, r, engineOpt), W: w, Opt: opt}
	rt.SetRoutePolicy(dartPolicy{rt})
	return rt
}

var _ armci.Runtime = (*Runtime)(nil)

// Name identifies the implementation.
func (r *Runtime) Name() string { return "dartmpi" }

// stageThreshold resolves the leader-staging cutoff.
func (r *Runtime) stageThreshold() int {
	if r.Opt.StageThreshold > 0 {
		return r.Opt.StageThreshold
	}
	return DefaultStageThreshold
}

// Malloc collectively allocates globally accessible memory: the inner
// GMR (inter-node RMA window) plus the node-local shared window. If
// the node-window attach fails, the already-completed inner allocation
// is released (collectively — attach errors are symmetric across the
// group) so the GMR table does not leak a window and its memory.
func (r *Runtime) Malloc(bytes int) ([]armci.Addr, error) {
	addrs, err := r.Runtime.Malloc(bytes)
	if err != nil {
		return nil, err
	}
	world := r.R.CommWorld()
	if err := r.attachNodeWin(world, world.GroupShared(), addrs[r.Rank()], bytes); err != nil {
		if ferr := r.Runtime.Free(addrs[r.Rank()]); ferr != nil {
			return nil, fmt.Errorf("%w (inner free during cleanup also failed: %v)", err, ferr)
		}
		return nil, err
	}
	return addrs, nil
}

// MallocGroup allocates over an ARMCI group, with the same error-path
// cleanup as Malloc.
func (r *Runtime) MallocGroup(g *armci.Group, bytes int) ([]armci.Addr, error) {
	addrs, err := r.Runtime.MallocGroup(g, bytes)
	if err != nil {
		return nil, err
	}
	mine := addrs[g.RankOf(r.Rank())]
	if err := r.attachNodeWin(g.Comm, g.Ranks, mine, bytes); err != nil {
		if ferr := r.Runtime.FreeGroup(g, mine); ferr != nil {
			return nil, fmt.Errorf("%w (inner free during cleanup also failed: %v)", err, ferr)
		}
		return nil, err
	}
	return addrs, nil
}

// attachNodeWin creates the allocation's node-local shared window (the
// second half of the dual-window pair) and enters it into the
// translation table. Under NoShm the near tiers are disabled, so no
// node window is created and every access rides the wire path.
func (r *Runtime) attachNodeWin(comm *mpi.Comm, members []int, myAddr armci.Addr, bytes int) error {
	if r.Opt.NoShm {
		return nil
	}
	if r.W.testAttachFault != nil {
		if err := r.W.testAttachFault(bytes); err != nil {
			return err
		}
	}
	m := r.W.Mpi.M
	me := r.Rank()
	// Split the allocation's communicator by node; ranks of one node
	// form the shared window's group.
	nodeComm := comm.Split(m.NodeOf(me), comm.Rank())
	var reg *fabric.Region
	var va int64
	if bytes > 0 {
		// Expose the memory the inner Malloc just allocated through the
		// node window too (the dual-window pair shares one segment).
		reg = m.Space(me).Find(myAddr.VA, bytes)
		if reg == nil {
			return fmt.Errorf("dartmpi: inner allocation region not found on rank %d", me)
		}
		va = myAddr.VA
	}
	win, err := mpi.WinCreateShared(nodeComm, reg)
	if err != nil {
		return err
	}
	// Exchange base addresses over the full allocation group and attach
	// this member's node window to the shared entry.
	r.W.dir.RegisterCollective(comm, members, va, bytes, func() map[int]*mpi.Win {
		return map[int]*mpi.Win{}
	}).Ext[me] = win
	comm.Barrier()
	return nil
}

// Free collectively releases a world allocation.
func (r *Runtime) Free(addr armci.Addr) error {
	return r.freeOn(r.R.CommWorld(), addr, func() error { return r.Runtime.Free(addr) })
}

// FreeGroup releases a group allocation.
func (r *Runtime) FreeGroup(g *armci.Group, addr armci.Addr) error {
	if g == nil {
		return fmt.Errorf("dartmpi: FreeGroup with nil group")
	}
	return r.freeOn(g.Comm, addr, func() error { return r.Runtime.FreeGroup(g, addr) })
}

// freeOn tears down the node window first (its group is a sub-set of
// the allocation's, and the inner Free releases the backing memory),
// then delegates. The leader election mirrors armcimpi's so members
// holding a Nil address still find the allocation.
func (r *Runtime) freeOn(comm *mpi.Comm, addr armci.Addr, innerFree func() error) error {
	if r.Opt.NoShm {
		return innerFree()
	}
	mine := int64(-1)
	if !addr.Nil() {
		mine = int64(r.Rank())
	}
	red := comm.AllreduceI64(mpi.OpMax, []int64{mine})
	leader := int(red[0])
	if leader < 0 {
		return fmt.Errorf("dartmpi: Free: all processes passed NULL")
	}
	var hdr []int64
	if r.Rank() == leader {
		hdr = []int64{addr.VA}
	} else {
		hdr = make([]int64, 1)
	}
	hdr = comm.BcastI64(comm.RankOfWorld(leader), hdr)
	key := armci.Addr{Rank: leader, VA: hdr[0]}
	a := r.W.dir.FindBase(key)
	if a == nil {
		return fmt.Errorf("dartmpi: Free(%v): no allocation for leader address", key)
	}
	if win := a.Ext[r.Rank()]; win != nil {
		if err := win.Free(); err != nil {
			return err
		}
	}
	comm.Barrier()
	if comm.Rank() == 0 {
		r.W.dir.Unregister(a)
	}
	return innerFree()
}
