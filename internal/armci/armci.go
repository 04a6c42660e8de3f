// Package armci defines the ARMCI (Aggregate Remote Memory Copy
// Interface) API surface of the paper: global addresses, contiguous and
// noncontiguous (strided and generalized I/O vector) one-sided
// operations, read-modify-write, mutexes, fences, processor groups, and
// the paper's two API extensions (direct local access and access
// modes).
//
// Two implementations satisfy Runtime: Direct in this package, for
// runtimes that move bytes themselves over a Transport
// (internal/native, the vendor-tuned baseline built directly on the
// fabric, and internal/dataserver), and internal/armcimpi (the paper's
// contribution, built on MPI one-sided communication; internal/dartmpi
// embeds it). Global Arrays (internal/ga) runs unchanged on any.
package armci

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Addr is an ARMCI global address: <process id, address> (SectionIV).
type Addr = fabric.Addr

// AccOp selects the accumulate element type/operation. The paper's
// workloads use double-precision accumulate (ARMCI_ACC_DBL).
type AccOp int

const (
	AccDbl AccOp = iota // double-precision: dst += scale * src
)

// RmwOp selects the atomic read-modify-write operation (SectionV.D).
type RmwOp int

const (
	FetchAndAdd RmwOp = iota // returns old value, adds operand
	Swap                     // returns old value, stores operand
)

func (op RmwOp) String() string {
	if !op.Valid() {
		return fmt.Sprintf("RmwOp(%d)", int(op))
	}
	return [...]string{FetchAndAdd: "fetch-and-add", Swap: "swap"}[op]
}

// Valid reports whether op is one of the operations above; every
// runtime's Rmw rejects any other op before its first lock or message.
func (op RmwOp) Valid() bool { return op == FetchAndAdd || op == Swap }

// AccessMode is the paper's SectionVIII.A extension: application-level
// hints about how an allocation will be accessed during a program
// phase, enabling relaxed locking.
type AccessMode int

const (
	// ModeConflicting is the default: any mix of operations may occur,
	// so ARMCI-MPI must use exclusive-lock epochs.
	ModeConflicting AccessMode = iota
	// ModeReadOnly promises only get operations until the mode changes.
	ModeReadOnly
	// ModeAccOnly promises only (same-op) accumulate operations.
	ModeAccOnly
)

func (m AccessMode) String() string {
	switch m {
	case ModeReadOnly:
		return "read-only"
	case ModeAccOnly:
		return "accumulate-only"
	default:
		return "conflicting"
	}
}

// Group is an ARMCI processor group. Communication operations always
// use absolute process ids (world ranks); group ids must be translated
// via AbsoluteID, mirroring ARMCI_Absolute_id (SectionIV).
type Group struct {
	Ranks []int     // group rank -> world rank, ascending
	Comm  *mpi.Comm // the communicator backing the group (SectionV.A)
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.Ranks) }

// AbsoluteID translates a group rank to a world rank.
func (g *Group) AbsoluteID(rank int) int { return g.Ranks[rank] }

// RankOf translates a world rank to a group rank, or -1.
func (g *Group) RankOf(world int) int {
	for i, r := range g.Ranks {
		if r == world {
			return i
		}
	}
	return -1
}

// Handle is a nonblocking-operation handle; Wait blocks until the
// operation is locally complete (ARMCI's local completion semantics,
// SectionIV.A). Wait is idempotent: waiting an already-complete handle
// returns immediately.
type Handle interface {
	Wait()
}

// Tester is optionally implemented by handles that can report local
// completion without blocking (ARMCI_Test).
type Tester interface {
	Test() bool
}

// WaitAll waits for local completion of every handle. Nil handles are
// permitted and skipped, and handles may appear (or the whole set be
// waited) more than once — Wait is idempotent.
func WaitAll(hs ...Handle) {
	for _, h := range hs {
		if h != nil {
			h.Wait()
		}
	}
}

// Mutexes is a set of ARMCI mutexes created by CreateMutexes. Mutex i
// of the set lives on the process that hosts it per the creating
// runtime's distribution (ARMCI hosts mutex i on process i % nprocs
// unless created with an explicit count per process; we follow the
// simple convention that CreateMutexes(n) places all n on the calling
// group's rank-cyclic hosts).
type Mutexes interface {
	// Lock acquires mutex mtx hosted on process proc (world rank).
	Lock(mtx, proc int)
	// Unlock releases mutex mtx on proc.
	Unlock(mtx, proc int)
	// Destroy collectively frees the set.
	Destroy() error
}

// Runtime is one rank's handle to an ARMCI implementation. All calls
// are made from that rank's goroutine. Operations on global memory use
// absolute process ids embedded in Addr.
type Runtime interface {
	// Name identifies the implementation ("native" or "armci-mpi").
	Name() string
	// Rank returns the calling process id (world rank).
	Rank() int
	// Nprocs returns the world size.
	Nprocs() int
	// Proc returns the rank's simulation context.
	Proc() *sim.Proc

	// Malloc collectively allocates bytes of globally accessible memory
	// on every process of the world and returns the address vector
	// (ARMCI_Malloc). A process may pass 0 and receives a Nil address.
	// The vector may be shared by every member: treat it as read-only.
	Malloc(bytes int) ([]Addr, error)
	// MallocGroup is Malloc over a group (only members call).
	MallocGroup(g *Group, bytes int) ([]Addr, error)
	// Free collectively releases an allocation; processes that received
	// a Nil address pass Nil (SectionV.B's leader-election case).
	Free(addr Addr) error
	// FreeGroup releases a group allocation.
	FreeGroup(g *Group, addr Addr) error
	// MallocLocal allocates local buffer memory from the runtime's
	// (pinned, if applicable) allocator (ARMCI_Malloc_local).
	MallocLocal(bytes int) Addr
	// FreeLocal releases local buffer memory.
	FreeLocal(addr Addr) error
	// LocalBytes exposes the raw bytes of a local buffer on the calling
	// process. For memory inside a GMR, direct access must instead be
	// bracketed by AccessBegin/AccessEnd.
	LocalBytes(addr Addr, n int) ([]byte, error)

	// Put copies n bytes from the local address src to the global
	// address dst; blocking (locally complete on return).
	Put(src, dst Addr, n int) error
	// Get copies n bytes from the global address src to the local
	// address dst; blocking (data available on return).
	Get(src, dst Addr, n int) error
	// Acc atomically applies dst += scale*src elementwise on float64
	// (ARMCI_Acc with ARMCI_ACC_DBL); blocking local completion.
	Acc(op AccOp, scale float64, src, dst Addr, n int) error

	// PutS/GetS/AccS perform strided transfers (Table I notation).
	PutS(s *Strided) error
	GetS(s *Strided) error
	AccS(op AccOp, scale float64, s *Strided) error

	// PutV/GetV/AccV perform generalized I/O vector transfers to/from a
	// single process (SectionVI.A).
	PutV(iov []GIOV, proc int) error
	GetV(iov []GIOV, proc int) error
	AccV(op AccOp, scale float64, iov []GIOV, proc int) error

	// Nb* are the nonblocking variants of every data-movement
	// operation; the handle's Wait provides local completion, and
	// Fence/AllFence provide remote completion.
	NbPut(src, dst Addr, n int) (Handle, error)
	NbGet(src, dst Addr, n int) (Handle, error)
	NbAcc(op AccOp, scale float64, src, dst Addr, n int) (Handle, error)
	NbPutS(s *Strided) (Handle, error)
	NbGetS(s *Strided) (Handle, error)
	NbAccS(op AccOp, scale float64, s *Strided) (Handle, error)
	NbPutV(iov []GIOV, proc int) (Handle, error)
	NbGetV(iov []GIOV, proc int) (Handle, error)
	NbAccV(op AccOp, scale float64, iov []GIOV, proc int) (Handle, error)

	// Fence blocks until all operations this process issued to proc
	// have completed remotely (ARMCI_Fence).
	Fence(proc int)
	// AllFence fences every process (ARMCI_AllFence).
	AllFence()
	// Barrier synchronizes all processes and fences all communication.
	Barrier()

	// Rmw performs an atomic read-modify-write on the int64 at the
	// global address: FetchAndAdd returns old and adds operand; Swap
	// returns old and stores operand (SectionV.D).
	Rmw(op RmwOp, addr Addr, operand int64) (int64, error)

	// CreateMutexes collectively creates n mutexes hosted on the
	// calling process (every process may pass a different n; mutex m of
	// process p is addressed as (m, p)).
	CreateMutexes(n int) (Mutexes, error)

	// AccessBegin/AccessEnd bracket direct load/store access to local
	// global memory (the paper's DLA extension, SectionV.E). The
	// returned slice aliases the exposed memory and is valid until
	// AccessEnd.
	AccessBegin(addr Addr, n int) ([]byte, error)
	AccessEnd(addr Addr) error

	// SetAccessMode applies the SectionVIII.A access-mode hint to the
	// allocation containing addr on every process (collective).
	SetAccessMode(mode AccessMode, addr Addr) error

	// GroupCreateCollective creates a group from world ranks; all world
	// processes must call (members and non-members alike). Non-members
	// receive nil.
	GroupCreateCollective(members []int) (*Group, error)
	// GroupCreate creates a group noncollectively: only members call
	// (SectionV.A / the recursive intercommunicator algorithm).
	GroupCreate(members []int) (*Group, error)
}

// CheckContig validates a contiguous transfer request.
func CheckContig(src, dst Addr, n int) error {
	if n < 0 {
		return fmt.Errorf("armci: negative transfer size %d", n)
	}
	if src.Nil() || dst.Nil() {
		return fmt.Errorf("armci: transfer with NULL address (src=%v dst=%v)", src, dst)
	}
	return nil
}
