package nwchem

import (
	"fmt"

	"repro/internal/mpi"
)

// CCSD runs the iterative CCSD proxy: in each iteration the residual
// R[ij,ab] = sum_cd T2[ij,cd] * V[cd,ab] is evaluated as a dynamically
// load-balanced tiled contraction — the particle-particle ladder term
// that dominates CCSD's O(no^2 nv^4) cost. Each task (cd-block,
// ab-block) performs:
//
//	get T2[:, cd]  ->  get V[cd, ab]  ->  local DGEMM  ->  acc R[:, ab]
//
// which is exactly the get/compute/accumulate pattern the paper's
// evaluation stresses, and the task queue is drained via the shared
// NXTVAL counter (GA_Read_inc). Collective; returns per-rank results.
func (s *System) CCSD() (Result, error) {
	p := s.P
	nb := p.nblocks()
	ntasks := nb * nb
	var res Result
	start := s.Env.Rt.Proc().Now()
	for it := 0; it < p.Iter; it++ {
		if err := s.resetCounter(); err != nil {
			return res, err
		}
		if err := s.R.Zero(); err != nil {
			return res, err
		}
		for {
			t, err := s.nextTasks()
			if err != nil {
				return res, err
			}
			if t >= int64(ntasks) {
				break
			}
			for k := t; k < t+s.P.chunk() && k < int64(ntasks); k++ {
				if err := s.ccsdTask(int(k), &res); err != nil {
					return res, fmt.Errorf("nwchem: ccsd task %d: %w", k, err)
				}
			}
			s.releaseTiles()
		}
		s.Env.Sync()
	}
	// Synthetic energy functional: E = sum_ij,ab T2[ij,ab]*R[ij,ab],
	// evaluated over the local block and reduced.
	e, err := s.energy()
	if err != nil {
		return res, err
	}
	res.Energy = e
	res.Elapsed = s.Env.Rt.Proc().Now() - start
	return res, nil
}

// ccsdTask executes one (cd-block, ab-block) contraction tile.
func (s *System) ccsdTask(task int, res *Result) error {
	p := s.P
	nb := p.nblocks()
	cd, ab := task/nb, task%nb
	cdLo, cdHi := p.blockRange(cd)
	abLo, abHi := p.blockRange(ab)
	ncd := cdHi - cdLo + 1
	nab := abHi - abLo + 1
	oo := p.oo()

	// Get T2[:, cdLo:cdHi] and V[cdLo:cdHi, abLo:abHi].
	t2 := s.tile(0, oo*ncd)
	if err := s.T2.Get([]int{0, cdLo}, []int{oo - 1, cdHi}, t2); err != nil {
		return err
	}
	v := s.tile(1, ncd*nab)
	if err := s.V.Get([]int{cdLo, abLo}, []int{cdHi, abHi}, v); err != nil {
		return err
	}
	// Local DGEMM: r = t2 (oo x ncd) * v (ncd x nab).
	flops := 2.0 * float64(oo) * float64(ncd) * float64(nab) * p.flopMult()
	s.M.Compute(s.Env.Rt.Proc(), flops)
	res.Flops += flops
	// The accumulate source must start all-zero (and stay so when
	// Numeric is off), whatever an earlier task or phase landed in the
	// tile.
	r := s.tile(2, oo*nab)
	clear(r)
	if p.Numeric {
		for i := 0; i < oo; i++ {
			for k := 0; k < ncd; k++ {
				a := t2[i*ncd+k]
				if a == 0 {
					continue
				}
				row := v[k*nab:]
				out := r[i*nab:]
				for j := 0; j < nab; j++ {
					out[j] += a * row[j]
				}
			}
		}
	}
	// Accumulate into the residual.
	if err := s.R.Acc([]int{0, abLo}, []int{oo - 1, abHi}, r, 1.0); err != nil {
		return err
	}
	res.Tasks++
	return nil
}

// energy evaluates the synthetic correlation functional
// sum(T2 .* R) over the local R block, reduced across all ranks.
func (s *System) energy() (float64, error) {
	local := 0.0
	blk, err := s.R.Access()
	if err == nil {
		// Direct access to R plus a get of the matching T2 patch, into
		// task tiles drawn from the machine's free list.
		if err := blk.Release(); err != nil {
			return 0, err
		}
		lo, hi := blk.Lo, blk.Hi
		n := (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
		t2, rvals := s.tile(0, n), s.tile(1, n)
		if err := s.R.Get(lo, hi, rvals); err != nil {
			return 0, err
		}
		if err := s.T2.Get(lo, hi, t2); err != nil {
			return 0, err
		}
		for i := range rvals {
			local += t2[i] * rvals[i]
		}
		s.releaseTiles()
	}
	sum := s.Env.GopF64(mpi.OpSum, []float64{local})
	return sum[0], nil
}
