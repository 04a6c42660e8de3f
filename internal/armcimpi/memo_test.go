package armcimpi_test

import (
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/nwchem"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The strided-datatype memo is the job's, shared by its ranks: a CCSD
// and (T) run at 8 ranks draws each of its stride/count shapes from it,
// and misses once per shape. A shape enters the ring only on a miss,
// so a ring that never filled evicted nothing, and no shape missed
// twice. A CCSD(T) job draws more shapes than the 4-slot per-rank ring
// this replaced could hold, so there every shape missed again and again.
func TestStridedTypeMemoMissesOncePerShape(t *testing.T) {
	const ranks = 8
	j, err := harness.NewJob(platform.Get(platform.InfiniBand), ranks, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := nwchem.Params{NO: 4, NV: 24, Blk: 36, Iter: 1, Chunk: 4, FlopMult: 40}
	err = j.Eng.Run(ranks, func(pr *sim.Proc) {
		env := ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr))
		sys, err := nwchem.Setup(env, j.M, p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sys.CCSD(); err != nil {
			t.Error(err)
		}
		if _, err := sys.Triples(); err != nil {
			t.Error(err)
		}
		if err := sys.Teardown(); err != nil {
			t.Error(err)
		}
	})
	j.M.Retire()
	if err != nil {
		t.Fatal(err)
	}
	filled, slots := j.AMWorld.MemoFill()
	if filled >= slots {
		t.Errorf("memo filled all %d slots: some shape may have been evicted and missed again", slots)
	}
	if filled <= 4 {
		t.Errorf("the job drew only %d shapes; the test needs more than a 4-slot ring holds", filled)
	}
	t.Logf("%d shapes in a %d-slot memo", filled, slots)
}
