package bench

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ScaleConfig tunes the large-rank scaling sweep: the CCSD(T)-proxy
// and GA fan-out shapes of Figures 5/6 pushed to thousands of ranks.
// Jobs this size are why rank bodies are lazily started coroutines: a
// job holds one goroutine stack per simultaneously parked rank, not per
// rank, which keeps a 16k-rank sweep inside a laptop-class memory
// budget.
type ScaleConfig struct {
	Ranks []int // simulated process counts, ascending

	// Params is the fixed CCSD proxy problem. The block size is chosen
	// so the task count stays at or above the largest rank count (every
	// rank draws work) without the task pool dwarfing it.
	Params nwchem.Params

	// Fan-out shape: rank 0 spans FanoutOwners owners with nonblocking
	// per-owner operations and one aggregated wait, FanoutBlkElems
	// float64 elements per owner, timed over FanoutIters iterations.
	FanoutOwners   int
	FanoutBlkElems int
	FanoutIters    int

	// Obs, when non-nil, records per-rank metrics for every job.
	Obs *obs.Recorder
}

// DefaultScale sweeps 4096-16384 ranks on the Cray XT5 model, the
// platform whose paper runs reached 12288 cores. MPI-3 is forced: the
// lock-all backend with fetch-op NXTVAL is the configuration that
// scales (SectionVIII.B); the MPI-2 mutex algorithm's O(nproc) lock
// epochs are exactly what these rank counts rule out.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Ranks:          []int{4096, 8192, 16384},
		Params:         nwchem.Params{NO: 4, NV: 64, Blk: 32, Iter: 1, Chunk: 1, FlopMult: 40},
		FanoutOwners:   64,
		FanoutBlkElems: 512,
		FanoutIters:    2,
	}
}

// QuickScale is the reduced sweep behind the guarded artifact: one
// 4096-rank point with a coarser task tiling (one task per rank).
func QuickScale() ScaleConfig {
	return ScaleConfig{
		Ranks:          []int{4096},
		Params:         nwchem.Params{NO: 4, NV: 64, Blk: 64, Iter: 1, Chunk: 1, FlopMult: 40},
		FanoutOwners:   64,
		FanoutBlkElems: 512,
		FanoutIters:    2,
	}
}

// scaleCCSD runs the CCSD phase of the proxy at one scale and returns
// the phase time (max over ranks).
func scaleCCSD(plat *platform.Platform, impl harness.Impl, nranks int, cfg ScaleConfig) (sim.Time, error) {
	opt := benchOptions()
	opt.UseMPI3 = true
	j, err := harness.NewJobObs(plat, nranks, impl, opt, cfg.Obs)
	if err != nil {
		return 0, err
	}
	var phase sim.Time
	var runErr error
	err = j.Eng.Run(nranks, func(pr *sim.Proc) {
		env := newGAEnv(j, pr)
		sys, err := nwchem.Setup(env, j.M, cfg.Params)
		if err != nil {
			runErr = err
			return
		}
		res, err := sys.CCSD()
		if err != nil {
			runErr = err
			return
		}
		mx := env.GopF64(mpi.OpMax, []float64{res.Elapsed.Seconds()})
		if env.Me() == 0 {
			phase = sim.FromSeconds(mx[0])
		}
		if err := sys.Teardown(); err != nil {
			runErr = err
		}
	})
	if err != nil {
		return 0, err
	}
	return phase, runErr
}

// scaleFanout measures the aggregated nonblocking GA fan-out (put to
// remote completion, and get) at one scale, returning per-operation
// latencies in microseconds. Only rank 0 issues operations — buffers
// exist on that rank alone, so per-rank memory stays flat in nranks.
func scaleFanout(plat *platform.Platform, impl harness.Impl, nranks int, cfg ScaleConfig) (putUs, getUs float64, err error) {
	opt := benchOptions()
	opt.UseMPI3 = true
	j, err := harness.NewJobObs(plat, nranks, impl, opt, cfg.Obs)
	if err != nil {
		return 0, 0, err
	}
	k := cfg.FanoutOwners
	var runErr error
	err = j.Eng.Run(nranks, func(pr *sim.Proc) {
		env := newGAEnv(j, pr)
		a, err := env.Create("scale-fanout", ga.F64, []int{nranks * cfg.FanoutBlkElems})
		if err != nil {
			runErr = err
			return
		}
		rt := env.Rt
		env.Sync()
		if env.Me() == 0 {
			vals := make([]float64, k*cfg.FanoutBlkElems)
			// The patch starts at owner 1's block: every spanned owner is
			// a different process from the issuing rank.
			lo := []int{cfg.FanoutBlkElems}
			hi := []int{cfg.FanoutBlkElems*(1+k) - 1}
			if err := a.Put(lo, hi, vals); err != nil {
				runErr = err
				return
			}
			rt.AllFence()
			start := rt.Proc().Now()
			for i := 0; i < cfg.FanoutIters; i++ {
				if err := a.Put(lo, hi, vals); err != nil {
					runErr = err
					return
				}
				rt.AllFence()
			}
			putUs = perOpMicros(rt.Proc().Now()-start, cfg.FanoutIters)
			if err := a.Get(lo, hi, vals); err != nil {
				runErr = err
				return
			}
			start = rt.Proc().Now()
			for i := 0; i < cfg.FanoutIters; i++ {
				if err := a.Get(lo, hi, vals); err != nil {
					runErr = err
					return
				}
			}
			getUs = perOpMicros(rt.Proc().Now()-start, cfg.FanoutIters)
		}
		env.Sync()
		if err := a.Destroy(); err != nil {
			runErr = err
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return putUs, getUs, runErr
}

// Scale regenerates the large-rank scaling figure on the Cray XT5
// model: CCSD proxy phase time and aggregated fan-out latency versus
// process count, for ARMCI-MPI and the locality-aware dartmpi runtime.
func Scale(cfg ScaleConfig) (*Figure, error) {
	plat := platform.Get(platform.CrayXT5)
	fig := &Figure{
		Name: "scale",
		// The title is part of the guarded BENCH_scale.json bytes and
		// keeps the name of the scheduler mode that first produced it.
		Title:  "Large-rank scaling (continuation scheduler), " + plat.System,
		XLabel: "number of processes",
		YLabel: "CCSD phase (virtual seconds) / fan-out latency (us per op)",
	}
	for _, impl := range []harness.Impl{harness.ImplARMCIMPI, harness.ImplDartMPI} {
		name := "ARMCI-MPI"
		if impl == harness.ImplDartMPI {
			name = "dartmpi"
		}
		for _, n := range cfg.Ranks {
			if n > plat.MaxRanks() {
				continue
			}
			t, err := scaleCCSD(plat, impl, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s ccsd @%d: %w", impl, n, err)
			}
			fig.Add(name+" CCSD", float64(n), t.Seconds())
			put, get, err := scaleFanout(plat, impl, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s fanout @%d: %w", impl, n, err)
			}
			fig.Add(name+" fanout put", float64(n), put)
			fig.Add(name+" fanout get", float64(n), get)
		}
	}
	return fig, nil
}
