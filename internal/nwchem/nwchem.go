// Package nwchem implements a computational-chemistry proxy
// application reproducing the communication structure of NWChem's
// CCSD(T) coupled-cluster kernels over Global Arrays (paper SectionII.A
// and SectionVII.C/D): block-sparse tensor contractions expressed as
// get -> local DGEMM -> accumulate over distributed arrays, with
// dynamic load balancing through the shared NXTVAL counter
// (GA_Read_inc), and a get- and compute-dominated perturbative triples
// phase.
//
// The chemistry is synthetic — deterministic pseudo-amplitudes instead
// of molecular integrals — but the runtime-visible behaviour (message
// sizes, operation mix, counter contention, flop/byte ratios as
// functions of no and nv) follows the CCSD(T) cost model
// O(no^2 nv^4) for CCSD iterations and O(no^3 nv^4) for (T).
package nwchem

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/ga"
	"repro/internal/sim"
)

// Params sizes the calculation. The paper's w5 system has NO=20,
// NV=435 (SectionVII.C); tests and simulations use scaled versions
// with the same shape.
type Params struct {
	NO   int // correlated occupied orbitals
	NV   int // virtual orbitals
	Blk  int // column-block size of the ab/cd superindex tiling
	Iter int // CCSD iterations
	// Chunk is the number of tasks claimed per NXTVAL draw (real
	// NWChem's tasks are coarse enough that counter traffic is
	// amortized; chunking models that granularity). 0 or 1 = one task
	// per draw.
	Chunk int
	// FlopMult scales the virtual flops charged per contraction
	// without changing the data movement, standing in for the much
	// larger per-task arithmetic of the real CCSD(T) kernels relative
	// to the scaled-down array sizes the simulation can hold. 0 = 1.
	FlopMult float64
	// Numeric computes the contractions for real so results can be
	// verified against a serial reference; benchmarks leave it false
	// and only charge virtual flops (the data still moves).
	Numeric bool
}

// Validate reports the first problem with the parameters.
func (p *Params) Validate() error {
	switch {
	case p.NO < 1 || p.NV < 1:
		return fmt.Errorf("nwchem: need NO,NV >= 1 (got %d,%d)", p.NO, p.NV)
	case p.Blk < 1:
		return fmt.Errorf("nwchem: block size %d", p.Blk)
	case p.Iter < 1:
		return fmt.Errorf("nwchem: iterations %d", p.Iter)
	}
	return nil
}

// dims of the matricized tensors.
func (p *Params) oo() int { return p.NO * p.NO }
func (p *Params) vv() int { return p.NV * p.NV }

// nblocks returns the number of column blocks of the vv superindex.
func (p *Params) nblocks() int { return (p.vv() + p.Blk - 1) / p.Blk }

// blockRange returns the inclusive column range of block b.
func (p *Params) blockRange(b int) (lo, hi int) {
	lo = b * p.Blk
	hi = lo + p.Blk - 1
	if hi >= p.vv() {
		hi = p.vv() - 1
	}
	return lo, hi
}

// Result reports one phase's outcome.
type Result struct {
	Energy  float64  // synthetic correlation-energy functional
	Tasks   int      // tasks this process executed (load balance)
	Flops   float64  // virtual flops this process charged
	Elapsed sim.Time // virtual wall time of the phase (max over ranks is taken by the caller)
}

// synth is a synthetic matrix: a smooth deterministic function of the
// global indices, so every rank fills its own block without
// communication and a serial reference can recompute it. Element
// (row, col) is table[(row*rowMul+col*colMul) % len(table)].
type synth struct {
	table          []float64
	rowMul, colMul int
}

// newSynth tabulates f(k/n) for the n residues k.
func newSynth(n, rowMul, colMul int, f func(x float64) float64) *synth {
	s := &synth{table: make([]float64, n), rowMul: rowMul, colMul: colMul}
	for k := range s.table {
		s.table[k] = f(float64(k) / float64(n))
	}
	return s
}

var (
	// amplitudes is the initial guess for T2.
	amplitudes = newSynth(97, 31, 17, func(x float64) float64 { return 0.05 + 0.9*x*x - 0.4*x })
	// integrals is the two-electron integral matrix V[cd,ab].
	integrals = newSynth(89, 13, 29, func(x float64) float64 { return 0.3 - x*0.6 + 0.1*x*x })
)

// at returns element (row, col): the definition fillRow steps through,
// and what the tests' serial reference calls.
func (s *synth) at(row, col int) float64 {
	return s.table[(row*s.rowMul+col*s.colMul)%len(s.table)]
}

// fillRow writes row's elements from column col0 on into dst. It steps
// the residue through the first len(table) elements only: the row
// repeats every n/gcd(colMul, n) columns, a divisor of n, so a prefix
// of n<<i elements is whole periods and the rest is filled by doubling
// it.
func (s *synth) fillRow(row, col0 int, dst []float64) {
	n := len(s.table)
	k, step := (row*s.rowMul+col0*s.colMul)%n, s.colMul%n
	head := dst[:min(n, len(dst))]
	for j := range head {
		head[j] = s.table[k]
		if k += step; k >= n {
			k -= n
		}
	}
	for j := len(head); j < len(dst); j *= 2 {
		copy(dst[j:], dst[:j])
	}
}

// fillMatrix initializes a 2-D global array from m, each rank writing
// the rows of its own block through direct local access.
func fillMatrix(e *ga.Env, a *ga.Array, m *synth) error {
	if _, _, ok := a.Distribution(e.Me()); !ok {
		return nil // ranks without a block have nothing to fill
	}
	blk, err := a.Access()
	if err != nil {
		return err
	}
	vals, cols := blk.F64s(), blk.Dims()[1]
	for i := 0; i*cols < len(vals); i++ {
		m.fillRow(blk.Lo[0]+i, blk.Lo[1], vals[i*cols:(i+1)*cols])
	}
	return blk.Release()
}

// System bundles the global arrays of one CCSD(T) calculation.
type System struct {
	P   Params
	Env *ga.Env
	M   *fabric.Machine

	T2      *ga.Array // amplitudes, (no*no) x (nv*nv)
	V       *ga.Array // integrals, (nv*nv) x (nv*nv)
	R       *ga.Array // residual, (no*no) x (nv*nv)
	Counter *ga.Array // NXTVAL dynamic load-balancing counter

	// tiles are this rank's task buffers, drawn from the machine's
	// payload free list and reused by the tasks of one NXTVAL claim. A
	// rank going back to the counter hands them back: ranks queue there,
	// and 4096 idle ranks holding 48 KB each are 200 MB of live heap,
	// while the next claim, this rank's or another's, draws them again
	// instead of allocating. Teardown hands back what an error path left.
	tiles [3][]byte
}

// releaseTiles hands the rank's task buffers back to the machine.
func (s *System) releaseTiles() {
	for i, b := range s.tiles {
		s.M.PutBuf(b)
		s.tiles[i] = nil
	}
}

// tile returns the rank's i-th task buffer resized to n elements; its
// contents are whatever the previous task, or the buffer's previous
// owner, left.
func (s *System) tile(i, n int) []float64 {
	if cap(s.tiles[i]) < 8*n {
		s.M.PutBuf(s.tiles[i])
		s.tiles[i] = s.M.GetBuf(8 * n)
	}
	return ga.F64View(s.tiles[i][:8*n])
}

// Setup collectively creates and initializes the arrays.
func Setup(e *ga.Env, m *fabric.Machine, p Params) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{P: p, Env: e, M: m}
	var err error
	if s.T2, err = e.Create("t2", ga.F64, []int{p.oo(), p.vv()}); err != nil {
		return nil, err
	}
	if s.V, err = e.Create("v2", ga.F64, []int{p.vv(), p.vv()}); err != nil {
		return nil, err
	}
	if s.R, err = e.Create("resid", ga.F64, []int{p.oo(), p.vv()}); err != nil {
		return nil, err
	}
	if s.Counter, err = e.Create("nxtval", ga.I64, []int{1}); err != nil {
		return nil, err
	}
	if err := fillMatrix(e, s.T2, amplitudes); err != nil {
		return nil, err
	}
	if err := fillMatrix(e, s.V, integrals); err != nil {
		return nil, err
	}
	e.Sync()
	return s, nil
}

// Teardown collectively destroys the arrays.
func (s *System) Teardown() error {
	s.releaseTiles()
	for _, a := range []*ga.Array{s.T2, s.V, s.R, s.Counter} {
		if err := a.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// chunk returns the task-claim granularity.
func (p *Params) chunk() int64 {
	if p.Chunk < 1 {
		return 1
	}
	return int64(p.Chunk)
}

// flopMult returns the arithmetic-intensity multiplier.
func (p *Params) flopMult() float64 {
	if p.FlopMult <= 0 {
		return 1
	}
	return p.FlopMult
}

// nextTasks draws a chunk of task ids [t, t+chunk) from the NXTVAL
// counter.
func (s *System) nextTasks() (int64, error) {
	return s.Counter.ReadInc([]int{0}, s.P.chunk())
}

// resetCounter collectively rewinds the NXTVAL counter.
func (s *System) resetCounter() error {
	return s.Counter.FillI64(0)
}
