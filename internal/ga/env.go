// Package ga implements the Global Arrays PGAS programming model on
// top of the ARMCI runtime interface (SectionII.B): distributed,
// shared, multidimensional arrays accessed through one-sided
// GA_Get/GA_Put/GA_Accumulate operations on high-level index ranges,
// plus locality queries, direct local access, atomic read-increment
// (the NXTVAL dynamic load-balancing counter), and collective helpers.
//
// A GA operation on an index range fans out into one noncontiguous
// (strided) ARMCI operation per owning process, exactly as in the
// paper's Figure 2. The package is oblivious to which ARMCI
// implementation is underneath — native or ARMCI-MPI.
package ga

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// Elem identifies the element type of an array.
type Elem int

const (
	// F64 is double precision (GA's C_DBL), 8 bytes.
	F64 Elem = iota
	// I64 is a 64-bit integer (GA's C_LONG), 8 bytes.
	I64
)

const elemBytes = 8

// keepSlots is the number of patch descriptor slots an Env retains
// between fan-outs (4 KB): wide enough for the tile-sized patches of a
// blocked algorithm, small enough to keep on each of 16k ranks.
const keepSlots = 16

// maxDims bounds array dimensionality (GA_MAX_DIM), which lets a
// fan-out keep its per-dimension working arrays on the stack.
const maxDims = 7

func (e Elem) String() string {
	if e == I64 {
		return "i64"
	}
	return "f64"
}

// Env is one rank's Global Arrays environment: the ARMCI runtime and
// the MPI rank used for GA's collective operations (GA_Brdcst, GA_Dgop).
type Env struct {
	Rt  armci.Runtime
	Mpi *mpi.Rank

	// BlockingFanout forces per-owner fan-outs (Put/Get/Acc and
	// Gather/Scatter/ScatterAcc) to issue one blocking ARMCI operation
	// per owner instead of issuing all owners nonblocking and waiting
	// once — the baseline the ablation-nbfanout figure compares against.
	BlockingFanout bool

	// scratch is the reusable local transfer buffer. Reuse matters: a
	// registration cache only pays off if buffers are stable, exactly
	// as GA's MA-pool buffers behave on the real systems (Figure 5's
	// on-demand registration discussion).
	scratchAddr armci.Addr
	scratchLen  int
	scratchReg  *fabric.Region // the fabric region at scratchAddr

	// slots and handles are the descriptor and handle storage of the
	// fan-out in progress, reused by the next one: a slot is valid from
	// its patch's issue until the fan-out's WaitAll returns. Env keeps
	// keepSlots slots (allocated by the first fan-out); a wider fan-out
	// makes its own array, so what a rank retains is bounded however
	// many owners it once addressed.
	slots   []patchSlot
	handles []armci.Handle
}

// scratch returns a local buffer of at least n bytes, growing (and
// re-registering) geometrically.
func (e *Env) scratch(n int) armci.Addr {
	if n > e.scratchLen {
		if e.scratchLen > 0 {
			if err := e.Rt.FreeLocal(e.scratchAddr); err != nil {
				panic(err)
			}
		}
		e.scratchLen = max(2*e.scratchLen, n, 4096)
		e.scratchAddr = e.Rt.MallocLocal(e.scratchLen)
		e.scratchReg = e.Mpi.W.M.Space(e.Me()).Find(e.scratchAddr.VA, e.scratchLen)
	}
	return e.scratchAddr
}

// scratchBytes returns the first n bytes of the scratch buffer, valid
// until the next scratch call. The buffer is backed on first touch, so
// a get asks only after its data has landed: thousands of ranks parked
// in a get should not each pin a zeroed buffer while they wait.
func (e *Env) scratchBytes(n int) []byte {
	if n == 0 { // an empty Gather/Scatter: nothing to address
		return nil
	}
	b, err := e.Rt.LocalBytes(e.scratchAddr, n)
	if err != nil {
		panic(err)
	}
	return b
}

// NewEnv creates the per-rank GA environment.
func NewEnv(rt armci.Runtime, r *mpi.Rank) *Env {
	return &Env{Rt: rt, Mpi: r}
}

// Nprocs returns the world size.
func (e *Env) Nprocs() int { return e.Rt.Nprocs() }

// Me returns the calling world rank.
func (e *Env) Me() int { return e.Rt.Rank() }

// Sync synchronizes all processes and completes all outstanding GA
// communication (GA_Sync).
func (e *Env) Sync() { e.Rt.Barrier() }

// GopF64 performs the GA_Dgop collective: elementwise reduction of a
// double vector across all processes. As in GA_Dgop, the result
// replaces vals on every process; it is also returned.
func (e *Env) GopF64(op mpi.Op, vals []float64) []float64 {
	return e.Mpi.CommWorld().AllreduceF64(op, vals)
}

// BrdcstF64 broadcasts doubles from root (GA_Brdcst).
func (e *Env) BrdcstF64(root int, vals []float64) []float64 {
	return e.Mpi.CommWorld().BcastF64(root, vals)
}

// f64put writes a float64 into region bytes.
func f64put(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// checkRange validates a patch against array bounds (inclusive hi, GA
// convention).
func checkRange(dims, lo, hi []int) error {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return fmt.Errorf("ga: patch dimensionality %d/%d, array has %d", len(lo), len(hi), len(dims))
	}
	for d := range dims {
		if lo[d] < 0 || hi[d] >= dims[d] || lo[d] > hi[d] {
			return fmt.Errorf("ga: bad range [%d,%d] in dim %d of extent %d", lo[d], hi[d], d, dims[d])
		}
	}
	return nil
}
