package bench

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Fig6Config tunes the NWChem scaling study. The paper's runs used up
// to 12288 physical cores; the simulation sweeps a scaled process
// range with a fixed (strong-scaling) problem whose task count and
// message sizes keep the communication-to-computation ratio in the
// regime that differentiates the runtimes.
type Fig6Config struct {
	Cores  []int         // simulated process counts
	Params nwchem.Params // fixed problem per platform sweep
	// FlopMult overrides Params.FlopMult per platform: the real
	// problem-per-core ratios differed across the paper's machines
	// (each platform ran at its own scale), which sets the
	// communication fraction that determines the CCSD gap.
	FlopMult map[string]float64
}

// ParamsFor returns the problem parameters for one platform.
func (c *Fig6Config) ParamsFor(plat *platform.Platform) nwchem.Params {
	p := c.Params
	if fm, ok := c.FlopMult[plat.Name]; ok {
		p.FlopMult = fm
	}
	return p
}

// DefaultFig6 uses a w5-shaped problem scaled to simulation size.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Cores:  []int{8, 16, 32, 64, 128},
		Params: nwchem.Params{NO: 6, NV: 48, Blk: 72, Iter: 1, Chunk: 4, FlopMult: 40},
		FlopMult: map[string]float64{
			platform.BlueGeneP: 120, // paper: "comparable ... maintains good scaling"
			platform.CrayXT5:   240, // paper: "only 15%-20% less for ARMCI-MPI"
		},
	}
}

// QuickFig6 is a reduced sweep for tests.
func QuickFig6() Fig6Config {
	return Fig6Config{
		Cores:  []int{4, 8, 16},
		Params: nwchem.Params{NO: 4, NV: 24, Blk: 36, Iter: 1, Chunk: 4, FlopMult: 40},
		FlopMult: map[string]float64{
			platform.BlueGeneP: 120,
			platform.CrayXT5:   240,
		},
	}
}

// NWChemPhase runs the CCSD or (T) phase of the proxy at one scale
// under impl with opt (rec may be nil) and returns the phase's virtual
// time, the maximum over ranks. Every figure and ablation that times
// the proxy (Fig. 6, §VIII.B, §IX and the scale sweep) runs it here.
func NWChemPhase(plat *platform.Platform, impl harness.Impl, cores int, opt armcimpi.Options, rec *obs.Recorder, p nwchem.Params, triples bool) (sim.Time, error) {
	return nwchemPhase(nil, plat, impl, cores, opt, rec, p, triples)
}

// nwchemPhase is NWChemPhase with the job's machine made on fl (nil:
// the stash).
func nwchemPhase(fl *fabric.FreeList, plat *platform.Platform, impl harness.Impl, cores int, opt armcimpi.Options, rec *obs.Recorder, p nwchem.Params, triples bool) (sim.Time, error) {
	var phase sim.Time
	_, err := harness.RunOn(fl, plat, cores, impl, opt, rec, func(j *harness.Job, pr *sim.Proc) error {
		env := ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr))
		sys, err := nwchem.Setup(env, j.M, p)
		if err != nil {
			return err
		}
		var res nwchem.Result
		if triples {
			res, err = sys.Triples()
		} else {
			res, err = sys.CCSD()
		}
		if err != nil {
			return err
		}
		mx := env.GopF64(mpi.OpMax, []float64{res.Elapsed.Seconds()})
		if env.Me() == 0 {
			phase = sim.FromSeconds(mx[0])
		}
		return sys.Teardown()
	})
	return phase, err
}

// Fig6 regenerates one platform's panel of Figure 6: CCSD (and
// optionally (T)) time versus process count for both runtimes. Times
// are reported in virtual minutes, as in the paper's axes.
//
// Every point is its own simulation job — engine, machine and runtimes
// of its own, as every point of the paper's figure was its own NWChem
// run — so the panel is enumerated, swept on every host core (sweep)
// and assembled: dispatch is smallest process count first, while
// points are added in enumeration order, so the figure is byte-for-byte
// what running the jobs one after another in that order gives. The
// order is for memory: each doubling of the process count halves every
// GA block, so a job's backings come from splitting the blocks the
// previous count's jobs retired (fabric's free list splits one class
// down) instead of from fresh pages. It costs no balance: a 128-rank
// job takes about three times an 8-rank one, and the two-worker
// makespan is within 1 % of largest-first (DESIGN.md, "Dispatch order
// vs. output order"). Process counts above the platform's cap are
// skipped; a panel left with no point is an error.
func Fig6(plat *platform.Platform, cfg Fig6Config, withTriples bool) (*Figure, error) {
	fig := &Figure{
		Name:   "fig6-" + plat.Name,
		Title:  "NWChem CCSD(T) proxy scaling, " + plat.System,
		XLabel: "number of processes",
		YLabel: "phase time (virtual minutes)",
	}
	type point struct {
		impl    harness.Impl
		series  string
		cores   int
		triples bool
		t       sim.Time // the job's result
	}
	var points []point
	for _, impl := range []harness.Impl{harness.ImplARMCIMPI, harness.ImplNative} {
		name := "ARMCI-MPI"
		if impl == harness.ImplNative {
			name = "ARMCI-Native"
		}
		for _, cores := range cfg.Cores {
			if cores > plat.MaxRanks() {
				continue
			}
			points = append(points, point{impl: impl, series: name + " CCSD", cores: cores})
			if withTriples {
				points = append(points, point{impl: impl, series: name + " (T)", cores: cores, triples: true})
			}
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("bench: fig6 %s: no process count in %v fits the platform's %d ranks", plat.Name, cfg.Cores, plat.MaxRanks())
	}
	order := make([]*point, len(points))
	for i := range points {
		order[i] = &points[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].cores < order[b].cores })
	p := cfg.ParamsFor(plat)
	err := chainSweep(runtime.GOMAXPROCS(0), len(order), func(i int, fl *fabric.FreeList) error {
		pt := order[i]
		t, err := nwchemPhase(fl, plat, pt.impl, pt.cores, benchOptions(), nil, p, pt.triples)
		if err != nil {
			phase := "ccsd"
			if pt.triples {
				phase = "(T)"
			}
			return fmt.Errorf("bench: fig6 %s/%s %s @%d: %w", plat.Name, pt.impl, phase, pt.cores, err)
		}
		pt.t = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		fig.Add(pt.series, float64(pt.cores), pt.t.Seconds()/60)
	}
	return fig, nil
}

// nwchemParams is the proxy problem of the §VIII.B and §IX ablations.
func nwchemParams() nwchem.Params {
	return nwchem.Params{NO: 4, NV: 24, Blk: 36, Iter: 1, Chunk: 4, FlopMult: 40}
}
