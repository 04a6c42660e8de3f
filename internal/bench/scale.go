package bench

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/platform"
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
	opt := benchOptions()
	opt.UseMPI3 = true
	for _, impl := range []harness.Impl{harness.ImplARMCIMPI, harness.ImplDartMPI} {
		name := "ARMCI-MPI"
		if impl == harness.ImplDartMPI {
			name = "dartmpi"
		}
		for _, n := range cfg.Ranks {
			if n > plat.MaxRanks() {
				continue
			}
			t, err := NWChemPhase(plat, impl, n, opt, cfg.Obs, cfg.Params, false)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s ccsd @%d: %w", impl, n, err)
			}
			fig.Add(name+" CCSD", float64(n), t.Seconds())
			put, get, err := fanout(plat, impl, n, opt, cfg.Obs, false, []int{cfg.FanoutOwners}, cfg.FanoutBlkElems, cfg.FanoutIters)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s fanout @%d: %w", impl, n, err)
			}
			fig.Add(name+" fanout put", float64(n), put.Last())
			fig.Add(name+" fanout get", float64(n), get.Last())
		}
	}
	return fig, nil
}
