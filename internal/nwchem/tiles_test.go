package nwchem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/sim"
)

// phaseOutcome is what one phase of one job computed: the residual
// array afterwards, the reduced energy, and the job's flop and task
// totals.
type phaseOutcome struct {
	R      []float64
	Energy float64
	Flops  float64
	Tasks  int
}

// runPhases runs the named phases ("ccsd", "triples") in order on one
// System and returns the outcome of the last one.
func runPhases(t *testing.T, n int, impl harness.Impl, p Params, phases ...string) phaseOutcome {
	t.Helper()
	j, err := harness.NewJob(harness.TestPlatform(), n, impl, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var out phaseOutcome
	err = j.Eng.Run(n, func(pr *sim.Proc) {
		env := ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr))
		sys, err := Setup(env, j.M, p)
		if err != nil {
			t.Error(err)
			return
		}
		var res Result
		for _, phase := range phases {
			run := sys.CCSD
			if phase == "triples" {
				run = sys.Triples
			}
			if res, err = run(); err != nil {
				t.Error(err)
				return
			}
		}
		out.Flops += res.Flops
		out.Tasks += res.Tasks
		if env.Me() == 0 {
			out.Energy = res.Energy
			out.R = make([]float64, p.oo()*p.vv())
			if err := sys.R.Get([]int{0, 0}, []int{p.oo() - 1, p.vv() - 1}, out.R); err != nil {
				t.Error(err)
			}
		}
		env.Sync()
		if err := sys.Teardown(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// near reports agreement to accumulation-order rounding: which rank
// accumulates which tile first depends on the NXTVAL draw order.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b)+1e-12 }

// A phase must not see what an earlier phase left in the System's
// reused task tiles: run second on a used System it computes what it
// computes alone on a fresh one — residual, energy, flop and task
// totals. In particular CCSD's accumulate source stays all-zero when
// Numeric is off (R stays exactly zero) although Triples lands panels
// in the same tiles (with NO = 1 the accumulate source and a landed
// panel have the same size, so a shared tile is not even regrown).
// Per-rank task shares and virtual times are not
// compared: the NXTVAL draw order depends on how skewed the ranks
// enter the phase, which differs after Setup and after another phase.
func TestPhasesDoNotSeeStaleTiles(t *testing.T) {
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI} {
		for _, n := range []int{4, 9} {
			for _, numeric := range []bool{false, true} {
				for _, c := range []struct {
					no    int
					order [2]string
				}{{1, [2]string{"triples", "ccsd"}}, {3, [2]string{"triples", "ccsd"}}, {3, [2]string{"ccsd", "triples"}}} {
					p, order := Params{NO: c.no, NV: 6, Blk: 10, Iter: 1, Numeric: numeric}, c.order
					t.Run(fmt.Sprintf("%s/n%d/numeric=%v/no%d/%s-then-%s", impl, n, numeric, p.NO, order[0], order[1]), func(t *testing.T) {
						alone := runPhases(t, n, impl, p, order[1])
						after := runPhases(t, n, impl, p, order[0], order[1])
						if order[1] == "triples" {
							// Triples leaves R as CCSD wrote it.
							alone.R = runPhases(t, n, impl, p, "ccsd").R
						}
						if after.Tasks != alone.Tasks || after.Flops != alone.Flops || !near(after.Energy, alone.Energy) {
							t.Errorf("%s after %s: tasks %d flops %v energy %v; alone: %d, %v, %v", order[1], order[0],
								after.Tasks, after.Flops, after.Energy, alone.Tasks, alone.Flops, alone.Energy)
						}
						for i := range alone.R {
							if numeric && !near(after.R[i], alone.R[i]) || !numeric && after.R[i] != 0 {
								t.Fatalf("%s after %s: R[%d] = %v, alone %v", order[1], order[0], i, after.R[i], alone.R[i])
							}
						}
					})
				}
			}
		}
	}
}

// fillMatrix skips exactly the ranks that own no block and reports
// everything else: a destroyed array is an error, not "nothing to fill".
func TestFillMatrixReportsErrors(t *testing.T) {
	const n = 8
	j, err := harness.NewJob(harness.TestPlatform(), n, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	owners := 0
	err = j.Eng.Run(n, func(pr *sim.Proc) {
		env := ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr))
		a, err := env.Create("tiny", ga.F64, []int{2, 2}) // four owners, four ranks beyond them
		if err != nil {
			t.Error(err)
			return
		}
		_, _, owner := a.Distribution(env.Me())
		if owner {
			owners++
		}
		if err := fillMatrix(env, a, amplitudes); err != nil {
			t.Errorf("rank %d (owner %v): fillMatrix: %v", env.Me(), owner, err)
		}
		env.Sync()
		if owner {
			lo, _, _ := a.Distribution(env.Me())
			got := make([]float64, 1)
			if err := a.Get(lo, lo, got); err != nil || got[0] != amplitude(lo[0], lo[1]) {
				t.Errorf("rank %d: element %v = %v (err %v), want %v", env.Me(), lo, got[0], err, amplitude(lo[0], lo[1]))
			}
		}
		env.Sync()
		if err := a.Destroy(); err != nil {
			t.Error(err)
		}
		if err := fillMatrix(env, a, amplitudes); (err != nil) != owner {
			t.Errorf("rank %d (owner %v): fillMatrix on a destroyed array returned %v", env.Me(), owner, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if owners != 4 {
		t.Errorf("%d ranks own a block of the 2x2 array, want 4", owners)
	}
}

// Setup allocates per array and per rank, never per element: a job
// whose V has 16x the elements costs (almost) the same number of
// objects (3,476 for the whole 4-rank job when this was written).
func TestSetupAllocatesNothingPerElement(t *testing.T) {
	setup := func(nv int) float64 {
		p := Params{NO: 4, NV: nv, Blk: 36, Iter: 1, Chunk: 4, FlopMult: 40} // bench.QuickFig6 at nv = 24
		return testing.AllocsPerRun(2, func() {
			j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Eng.Run(4, func(pr *sim.Proc) {
				sys, err := Setup(ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr)), j.M, p)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sys.Teardown(); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, quick := setup(12), setup(24)
	t.Logf("job objects: nv=12 %v, nv=24 %v", small, quick)
	if quick > small+64 {
		t.Errorf("Setup + Teardown allocates %v objects at nv=24 but %v at nv=12: something allocates per element", quick, small)
	}
}

// The row fillers step the residue for one table's length and copy
// whole periods after that; they must write exactly the elements at
// defines, bit for bit, from every start column of a period and at
// every length up to three tables and one more, and the tables must
// hold the formulas the proxy has always used.
func TestFillRowMatchesAt(t *testing.T) {
	for _, m := range []*synth{amplitudes, integrals} {
		n := len(m.table)
		row := make([]float64, 3*n+1)
		for _, r := range []int{0, 5, 1000} {
			for col0 := 0; col0 < n; col0++ {
				for l := 0; l <= len(row); l++ {
					clear(row)
					m.fillRow(r, col0, row[:l])
					for j, got := range row {
						want := m.at(r, col0+j)
						if j >= l {
							want = 0 // beyond dst: untouched
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d fillRow(%d, %d, len %d)[%d] = %v, want %v", n, r, col0, l, j, got, want)
						}
					}
				}
			}
		}
	}
	x, y := float64((5*31+7*17)%97)/97.0, float64((5*13+7*29)%89)/89.0
	if got, want := amplitude(5, 7), 0.05+0.9*x*x-0.4*x; got != want {
		t.Errorf("amplitude(5, 7) = %v, formula %v", got, want)
	}
	if got, want := integral(5, 7), 0.3-y*0.6+0.1*y*y; got != want {
		t.Errorf("integral(5, 7) = %v, formula %v", got, want)
	}
}
