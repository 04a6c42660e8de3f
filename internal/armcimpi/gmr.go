// Package armcimpi is the paper's contribution: a complete
// implementation of the ARMCI runtime system on MPI one-sided
// communication (SectionV). The global memory region (GMR) layer
// translates between ARMCI's <process, address> global address space
// and MPI's <window, displacement> space, manages allocation and
// (leader-elected) free, and arbitrates access so MPI-2's conflicting-
// access rules are never violated: every operation runs inside its own
// exclusive-lock passive-target epoch unless an access-mode hint
// (SectionVIII.A) permits shared locks.
package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Method selects a noncontiguous transfer strategy (SectionVI).
type Method int

const (
	// MethodConservative issues one operation per segment, each in its
	// own epoch; segments may span GMRs and overlap.
	MethodConservative Method = iota
	// MethodBatched issues up to BatchSize operations per epoch; all
	// segments must fall in one GMR and must not overlap.
	MethodBatched
	// MethodIOVDirect builds MPI indexed datatypes for source and
	// destination and issues a single operation.
	MethodIOVDirect
	// MethodDirect translates strided descriptors straight into MPI
	// subarray datatypes (strided operations only).
	MethodDirect
	// MethodAuto scans the descriptor with the conflict tree
	// (SectionVI.B) and picks the batched method when safe, falling
	// back to conservative otherwise.
	MethodAuto
)

func (m Method) String() string {
	switch m {
	case MethodConservative:
		return "conservative"
	case MethodBatched:
		return "batched"
	case MethodIOVDirect:
		return "iov-direct"
	case MethodDirect:
		return "direct"
	case MethodAuto:
		return "auto"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod parses the String form of a Method ("conservative",
// "batched", "iov-direct", "direct", "auto").
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{MethodConservative, MethodBatched, MethodIOVDirect, MethodDirect, MethodAuto} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("armcimpi: unknown method %q (want conservative, batched, iov-direct, direct, or auto)", s)
}

// Options tunes the ARMCI-MPI runtime.
type Options struct {
	// StridedMethod selects the strategy for PutS/GetS/AccS.
	// MethodDirect is the default (SectionVI.C).
	StridedMethod Method
	// IOVMethod selects the strategy for PutV/GetV/AccV.
	// MethodAuto is the default (SectionVI.B).
	IOVMethod Method
	// BatchSize bounds operations per epoch in the batched method;
	// 0 means unlimited (the paper's default B=0).
	BatchSize int
	// UseMPI3 switches read-modify-write to MPI-3 fetch-and-op and
	// enables lock-all-based ablations; requires the MPI world to have
	// MPI-3 enabled.
	UseMPI3 bool
	// NoStaging disables the global-buffer staging path (safe only on
	// coherent systems where the MPI implementation allows concurrent
	// access, SectionV.E.1).
	NoStaging bool
	// NoShm disables the intra-node shared-memory fast path: GMR and
	// mutex windows are created with plain MPI_Win_create instead of
	// the Win_allocate_shared flavor, forcing same-node traffic through
	// the RMA path (the ablation baseline). Under dartmpi, which runs
	// this engine, it also turns leader staging off.
	NoShm bool
	// NoLeaderStaging disables dartmpi's hierarchical put/get: large
	// remote transfers go straight to the wire instead of staging
	// through the node-leader rank (the locality-ablation toggle).
	// Ignored by the other runtimes.
	NoLeaderStaging bool
	// StageThreshold is the minimum remote transfer size, in bytes,
	// that dartmpi stages through the node leader; 0 selects the
	// default (8 KiB). Ignored by the other runtimes.
	StageThreshold int
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{StridedMethod: MethodDirect, IOVMethod: MethodAuto}
}

// World is the shared state of the ARMCI-MPI job: the GMR translation
// table (SectionV.A), an armci.Directory whose entries carry the MPI
// side of each allocation.
type World struct {
	Mpi *mpi.World
	dir armci.Directory[gmrExt]
	// mutexSets counts live mutex sets (each GMR's RMW set included);
	// the set's first member keeps it.
	mutexSets int

	// leaderBusy is the staging-pipe horizon of each node's leader
	// rank: RouteStagedRMA plans queue behind it. Lazily sized by
	// execStage on first use, so jobs whose policy never stages pay
	// nothing.
	leaderBusy []sim.Time

	// dtMemo is a small ring of recently translated strided datatypes,
	// shared by every rank of the job. Applications overwhelmingly
	// reissue transfers with the same stride/count shape (different
	// addresses), and reusing the Datatype also reuses its flatten
	// cache across operations. Datatypes are immutable, so sharing one
	// across plans and ranks is safe, and the job's ranks run one at a
	// time. Eight slots hold the six shapes a CCSD(T) task draws (a
	// per-rank ring that size would cost every rank of a Fig. 4 job).
	dtMemo [8]dtEntry
	dtNext int

	// Counters.
	Staged    int64 // global-buffer staging events (SectionV.E.1)
	AutoScans int64 // conflict scans performed by MethodAuto
	AutoFalls int64 // scans that fell back to conservative
}

// NewWorld creates ARMCI-MPI state on an MPI world.
func NewWorld(mw *mpi.World) *World { return &World{Mpi: mw} }

// GMR is one global memory region: an ARMCI allocation backed by an
// MPI window (SectionV.B). Group ranks are window ranks.
type GMR = armci.Allocation[gmrExt]

// gmrExt is what ARMCI-MPI hangs off a directory entry.
type gmrExt struct {
	mode  armci.AccessMode
	wins  map[int]*mpi.Win // per-world-rank window handle
	mutex map[int]*Mutexes // per-world-rank handle of the RMW mutex set
}

// NumGMRs returns the number of live registered GMRs (test hook for
// leak assertions).
func (w *World) NumGMRs() int { return w.dir.Len() }

// NumMutexSets returns the number of live mutex sets, likewise.
func (w *World) NumMutexSets() int { return w.mutexSets }

// Runtime is one rank's ARMCI-MPI handle.
type Runtime struct {
	W   *World
	R   *mpi.Rank
	Opt Options

	dla map[int64]dlaSection // open direct-local-access sections by base VA

	// policy is the routing layer's decision maker (route.go); New
	// installs the engine default, SetRoutePolicy replaces it. pinned,
	// when set, is consumed by the next decide call: a per-segment
	// re-entry of an already routed conservative plan goes to the wire
	// without re-deciding (and re-staging or re-counting).
	policy RoutePolicy
	pinned bool

	// held and temps are the executor's scratch slices (exec.go), lent
	// to one blocking execution at a time; lastContig is contig's memo.
	held       []heldView
	temps      []*fabric.Region
	lastContig mpi.Datatype

	// Outstanding MPI-3 request ops, tracked per window and per target
	// (window rank) so Fence(proc) can flush just that target.
	// pendingOrder keeps deterministic iteration order; each entry
	// remembers its slot so dropPending is O(1) (dropped slots are
	// tombstoned to nil and compacted once they outnumber live ones).
	pending      map[*mpi.Win]*pendingOps
	pendingOrder []*mpi.Win
	pendingDead  int // tombstoned slots in pendingOrder

	// sc is the storage non-direct strided and IOV compiles reuse
	// (plan.go), allocated by the runtime's first one: most ranks of a
	// job never make one.
	sc *iovScratch
}

// dtEntry is one memoized stride/count -> Datatype translation.
type dtEntry struct {
	stride, count []int
	t             mpi.Datatype
}

// dlaSection is one open AccessBegin section.
type dlaSection struct {
	g *GMR
	n int
}

// New creates the per-rank ARMCI-MPI runtime handle.
func New(w *World, r *mpi.Rank, opt Options) *Runtime {
	rt := &Runtime{
		W: w, R: r, Opt: opt,
		dla:     map[int64]dlaSection{},
		pending: map[*mpi.Win]*pendingOps{},
	}
	rt.policy = enginePolicy{rt}
	return rt
}

// pendingOps tracks one window's unfenced targets and its slot in
// pendingOrder.
type pendingOps struct {
	targets map[int]bool // window ranks with outstanding request ops
	idx     int          // this window's slot in pendingOrder
}

// addPending records an unfenced nonblocking op on win targeting the
// given window rank.
func (r *Runtime) addPending(win *mpi.Win, gr int) {
	ent := r.pending[win]
	if ent == nil {
		if r.pendingDead > len(r.pendingOrder)-r.pendingDead {
			r.compactPending()
		}
		ent = &pendingOps{targets: map[int]bool{}, idx: len(r.pendingOrder)}
		r.pending[win] = ent
		r.pendingOrder = append(r.pendingOrder, win)
	}
	ent.targets[gr] = true
}

// dropPending forgets all outstanding-op tracking for win: O(1), the
// window's pendingOrder slot is tombstoned rather than slice-deleted.
func (r *Runtime) dropPending(win *mpi.Win) {
	ent, ok := r.pending[win]
	if !ok {
		return
	}
	delete(r.pending, win)
	r.pendingOrder[ent.idx] = nil
	r.pendingDead++
}

// compactPending squeezes tombstones out of pendingOrder, preserving
// insertion order and refreshing each entry's slot.
func (r *Runtime) compactPending() {
	live := r.pendingOrder[:0]
	for _, w := range r.pendingOrder {
		if w != nil {
			r.pending[w].idx = len(live)
			live = append(live, w)
		}
	}
	for i := len(live); i < len(r.pendingOrder); i++ {
		r.pendingOrder[i] = nil
	}
	r.pendingOrder = live
	r.pendingDead = 0
}

// winCreate creates a GMR/mutex backing window, using the shared
// flavor (intra-node fast path) unless disabled.
func (r *Runtime) winCreate(comm *mpi.Comm, reg *fabric.Region) (*mpi.Win, error) {
	if r.Opt.NoShm {
		return mpi.WinCreate(comm, reg)
	}
	return mpi.WinCreateShared(comm, reg)
}

var _ armci.Runtime = (*Runtime)(nil)

// Name identifies the implementation.
func (r *Runtime) Name() string { return "armci-mpi" }

// obs returns the job's recorder; its methods are nil-safe no-ops when
// observability is off.
func (r *Runtime) obs() *obs.Recorder { return r.W.Mpi.Obs }

// Rank returns the calling world rank.
func (r *Runtime) Rank() int { return r.R.ID() }

// Nprocs returns the world size.
func (r *Runtime) Nprocs() int { return r.W.Mpi.N }

// Proc returns the simulation context.
func (r *Runtime) Proc() *sim.Proc { return r.R.P }

// Malloc collectively allocates globally accessible memory on the
// world and returns the base-address vector (SectionV.B).
func (r *Runtime) Malloc(bytes int) ([]armci.Addr, error) {
	return r.mallocOn(r.R.CommWorld(), r.R.CommWorld().GroupShared(), bytes)
}

// MallocGroup allocates over an ARMCI group.
func (r *Runtime) MallocGroup(g *armci.Group, bytes int) ([]armci.Addr, error) {
	if g == nil {
		return nil, fmt.Errorf("armcimpi: MallocGroup with nil group")
	}
	return r.mallocOn(g.Comm, g.Ranks, bytes)
}

func (r *Runtime) mallocOn(comm *mpi.Comm, members []int, bytes int) ([]armci.Addr, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("armcimpi: Malloc(%d): negative size", bytes)
	}
	if comm == nil {
		return nil, fmt.Errorf("armcimpi: Malloc without a communicator")
	}
	t0 := r.R.P.Now()
	var reg *fabric.Region
	var va int64
	if bytes > 0 {
		reg = r.R.AllocMem(bytes)
		va = reg.VA
	}
	// Create the MPI window over the group's communicator and exchange
	// base addresses (the all-to-all of SectionV.B).
	win, err := r.winCreate(comm, reg)
	if err != nil {
		return nil, err
	}
	// The group's first member enters the GMR into the translation
	// table; all members attach their window handle to the one entry.
	g := r.W.dir.RegisterCollective(comm, members, va, bytes, func() gmrExt {
		return gmrExt{wins: map[int]*mpi.Win{}, mutex: map[int]*Mutexes{}}
	})
	g.Ext.wins[r.Rank()] = win
	// The per-GMR mutex for read-modify-write (SectionV.D).
	mux, err := newMutexes(r, comm, 1)
	if err != nil {
		return nil, err
	}
	g.Ext.mutex[r.Rank()] = mux
	comm.Barrier()
	r.obs().Alloc(r.Rank(), t0, r.R.P.Now(), bytes, g.ID)
	// One shared address vector per allocation; callers treat it as
	// read-only (a per-rank copy would be N² entries).
	return g.Addrs, nil
}

// Free collectively releases a world allocation; processes with a
// zero-size slice pass the Nil address and learn the allocation via
// the leader-election protocol of SectionV.B.
func (r *Runtime) Free(addr armci.Addr) error {
	return r.freeOn(r.R.CommWorld(), addr)
}

// FreeGroup releases a group allocation.
func (r *Runtime) FreeGroup(g *armci.Group, addr armci.Addr) error {
	if g == nil {
		return fmt.Errorf("armcimpi: FreeGroup with nil group")
	}
	return r.freeOn(g.Comm, addr)
}

func (r *Runtime) freeOn(comm *mpi.Comm, addr armci.Addr) error {
	g, err := r.W.dir.Elect(comm, addr)
	if err != nil {
		return fmt.Errorf("armcimpi: %v", err)
	}
	// Destroy the RMW mutex and the window, then release local memory.
	if mux := g.Ext.mutex[r.Rank()]; mux != nil {
		if err := mux.Destroy(); err != nil {
			return err
		}
	}
	win := g.Ext.wins[r.Rank()]
	if err := r.ensureNoLockAll(win); err != nil {
		return err
	}
	r.dropPending(win)
	if err := win.Free(); err != nil {
		return err
	}
	if gr := comm.Rank(); g.Sizes[gr] > 0 {
		if err := r.W.Mpi.M.Space(r.Rank()).Free(g.Addrs[gr].VA); err != nil {
			return err
		}
	}
	comm.Barrier()
	if comm.Rank() == 0 {
		r.W.dir.Unregister(g)
	}
	r.obs().Count(r.Rank(), obs.CGmrFree, 1)
	return nil
}

// MallocLocal allocates local buffer memory via MPI_Alloc_mem, the
// only allocator ARMCI-MPI has (whether it is pre-registered depends
// on the MPI library; see Figure 5).
func (r *Runtime) MallocLocal(bytes int) armci.Addr {
	reg := r.R.AllocMem(bytes)
	return armci.Addr{Rank: r.Rank(), VA: reg.VA}
}

// FreeLocal releases local buffer memory.
func (r *Runtime) FreeLocal(addr armci.Addr) error {
	if addr.Rank != r.Rank() {
		return fmt.Errorf("armcimpi: FreeLocal of remote address %v", addr)
	}
	return r.W.Mpi.M.Space(r.Rank()).Free(addr.VA)
}
