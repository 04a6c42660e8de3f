package nwchem

import (
	"fmt"

	"repro/internal/mpi"
)

// Triples runs the perturbative (T) proxy. The (T) correction is
// O(no^3 nv^4): for each occupied triple (i<=j<=k) and each virtual
// block, amplitudes and integrals are fetched one-sidedly and a large
// local contraction is performed; the result is a scalar energy
// contribution, so the phase is get- and compute-dominated with no
// accumulate traffic — matching SectionVII.D's description of the
// expensive (T) calculation. Tasks are drawn from the NXTVAL counter.
func (s *System) Triples() (Result, error) {
	p := s.P
	nb := p.nblocks()
	ntrip := p.NO * (p.NO + 1) * (p.NO + 2) / 6 // i<=j<=k triples
	ntasks := ntrip * nb
	var res Result
	start := s.Env.Rt.Proc().Now()
	if err := s.resetCounter(); err != nil {
		return res, err
	}
	local := 0.0
	oo := p.oo()
	for {
		tc, err := s.nextTasks()
		if err != nil {
			return res, err
		}
		if tc >= int64(ntasks) {
			break
		}
		tcEnd := tc + s.P.chunk()
		if tcEnd > int64(ntasks) {
			tcEnd = int64(ntasks)
		}
		for t := tc; t < tcEnd; t++ {
			ab := int(t) % nb
			abLo, abHi := p.blockRange(ab)
			nab := abHi - abLo + 1
			// Fetch the amplitude panel and two integral panels this triple
			// needs (three one-sided gets, as TCE's (T) loops issue).
			t2 := s.tile(0, oo*nab)
			if err := s.T2.Get([]int{0, abLo}, []int{oo - 1, abHi}, t2); err != nil {
				return res, fmt.Errorf("nwchem: (T) task %d: %w", t, err)
			}
			v1 := s.tile(1, nab*min(nab, p.vv()))
			if err := s.V.Get([]int{abLo, 0}, []int{abHi, min(nab, p.vv()) - 1}, v1); err != nil {
				return res, err
			}
			v2 := s.tile(2, nab)
			if err := s.V.Get([]int{abLo, abLo}, []int{abLo, abHi}, v2); err != nil {
				return res, err
			}
			// The triples contraction is ~no x more work per byte than the
			// CCSD ladder: charge 2 * no^3 * nab^2 flops.
			flops := 2.0 * float64(p.NO*p.NO*p.NO) * float64(nab) * float64(nab) * p.flopMult()
			s.M.Compute(s.Env.Rt.Proc(), flops)
			res.Flops += flops
			if p.Numeric {
				acc := 0.0
				for i := 0; i < len(t2); i += 7 {
					acc += t2[i]
				}
				for i := 0; i < len(v1); i += 11 {
					acc -= 0.5 * v1[i]
				}
				local += acc / float64(ntasks)
			}
			res.Tasks++
		}
		s.releaseTiles()
	}
	s.Env.Sync()
	sum := s.Env.GopF64(mpi.OpSum, []float64{local})
	res.Energy = sum[0]
	res.Elapsed = s.Env.Rt.Proc().Now() - start
	return res, nil
}
