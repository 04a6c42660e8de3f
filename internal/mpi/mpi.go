// Package mpi implements the subset of the Message Passing Interface
// needed to host the ARMCI-MPI runtime, on top of the simulated fabric:
//
//   - communicators and groups (dup, split, translate), including
//     intercommunicator creation and merging;
//   - two-sided point-to-point with tag matching and wildcards;
//   - collectives (barrier, bcast, reduce, allreduce, allgather, ...);
//   - derived datatypes (contiguous, vector, indexed, subarray);
//   - passive-target one-sided RMA: window creation, shared/exclusive
//     lock arbitration at the target, put/get/accumulate with
//     datatypes, and MPI-2 conflicting-access detection;
//   - MPI-3 extensions behind an option: lock-all/flush epochless
//     passive mode, request-based operations, and atomic
//     read-modify-write (fetch-and-op, compare-and-swap).
//
// The package enforces MPI-2 RMA semantics (one epoch per window per
// origin, conflicting accesses are errors) because ARMCI-MPI's design
// is precisely about living within those rules.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reduction operations.
type Op int

const (
	OpSum Op = iota
	OpMin
	OpMax
	OpProd
	OpBOR
	OpReplace // RMA-only: MPI_REPLACE
	OpNoOp    // RMA-only: MPI_NO_OP (MPI-3 fetch)
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "SUM"
	case OpMin:
		return "MIN"
	case OpMax:
		return "MAX"
	case OpProd:
		return "PROD"
	case OpBOR:
		return "BOR"
	case OpReplace:
		return "REPLACE"
	case OpNoOp:
		return "NO_OP"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// message kinds on the fabric (fabric.Msg.Kind).
const (
	kindP2P = iota
	kindRendezvousRTS
	kindRendezvousCTS
	kindRendezvousData
)

// DefaultEagerLimit is the eager/rendezvous protocol switch point.
const DefaultEagerLimit = 64 << 10

// World is the shared state of one MPI job on a machine. It is created
// once (before Engine.Run) and shared by all ranks; the cooperative
// scheduler guarantees at most one goroutine touches it at a time.
type World struct {
	M   *fabric.Machine
	Tun *platform.Tuning // MPI software tuning for this platform
	N   int

	nextCid int
	nextWin int
	wins    map[int]*winState
	rvSeq   int // rendezvous transfer ids

	// Free lists of the per-message and per-operation records: eager
	// messages a receive has consumed, wire operations that have landed.
	eager sim.FreeList[eagerMsg]
	xfers sim.FreeList[xfer]
	amos  sim.FreeList[amo]

	// EagerLimit is the largest message sent eagerly (buffered);
	// larger sends use the RTS/CTS rendezvous protocol.
	EagerLimit int

	// Checked enables MPI-2 semantic checking (conflicting accesses,
	// double locks). ARMCI-MPI is designed to pass with checking on.
	Checked bool
	// MPI3 enables the MPI-3 RMA extensions (lock-all/flush,
	// request-based ops, atomic read-modify-write).
	MPI3 bool

	// Counters.
	Epochs       int64
	SharedEpochs int64
	ExclEpochs   int64
	RMAOps       int64

	// Obs, when non-nil, receives per-rank RMA metrics and trace spans
	// (lock waits, epochs, op issue→remote-complete, datatype packs).
	// All hooks are nil-safe no-ops.
	Obs *obs.Recorder

	// worldGroup is the identity group [0..N) shared by every rank's
	// CommWorld — one slice for the job, not one per rank, which
	// matters at 16k ranks (a per-rank copy would be N² ints).
	worldGroup []int
}

// NewWorld creates MPI state for all ranks of machine m with the given
// software tuning. Checked semantics default to on.
func NewWorld(m *fabric.Machine, tun *platform.Tuning) *World {
	return &World{
		M:          m,
		Tun:        tun,
		N:          m.NRanks,
		nextCid:    1,
		wins:       map[int]*winState{},
		EagerLimit: DefaultEagerLimit,
		Checked:    true,
	}
}

// Rank is one rank's handle on the MPI world; all MPI calls go through
// it. Obtain it at the top of the rank body via w.Rank(p).
type Rank struct {
	W *World
	P *sim.Proc

	world *Comm
}

// Rank binds the calling rank's sim context to the world and returns
// its MPI handle, with CommWorld ready. All ranks share one immutable
// world-group slice.
func (w *World) Rank(p *sim.Proc) *Rank {
	if w.worldGroup == nil {
		g := make([]int, w.N)
		for i := range g {
			g[i] = i
		}
		w.worldGroup = g
	}
	r := &Rank{W: w, P: p}
	r.world = &Comm{r: r, cid: 0, group: w.worldGroup, rank: p.ID()}
	return r
}

// CommWorld returns the communicator spanning all ranks.
func (r *Rank) CommWorld() *Comm { return r.world }

// ID returns the rank's world rank.
func (r *Rank) ID() int { return r.P.ID() }

// opOverhead charges the per-operation MPI software overhead.
func (r *Rank) opOverhead() {
	r.P.Elapse(sim.FromSeconds(r.W.Tun.OpOverheadNs / 1e9))
}

// AllocMem allocates n bytes of memory through MPI_Alloc_mem. Whether
// the memory is pre-registered with the interconnect depends on the
// MPI library (MVAPICH2 does not pre-pin; see Figure 5 discussion).
func (r *Rank) AllocMem(n int) *fabric.Region {
	return r.W.M.Space(r.ID()).Alloc(n, fabric.DomainMPI, r.W.Tun.PrepinAlloc)
}
