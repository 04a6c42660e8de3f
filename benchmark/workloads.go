package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/platform"
)

// workload is one closed-loop figure regeneration: a repetition makes
// the generator calls below once, in a fresh process, one simulated job
// at a time.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	reps int    // repetitions of a suite run (-seconds 0)
	// hasObs says the generators' config has a public Obs field, so the
	// traced run can add recorder repetitions (work done, observability tax).
	hasObs bool
	// gen makes the generator calls through m, which times them. rec is
	// nil except in a recorder repetition.
	gen func(m *meter, smoke bool, rec *obs.Recorder) error
	// shape checks the EXPERIMENTS.md claims the stock configuration covers.
	shape   func(figs []*bench.Figure) []check
	drivers []driver
}

var workloads = []*workload{
	{
		name:    "ccsd",
		why:     "Fig. 6 CCSD(T) on ib, 8-128 ranks, both runtimes: the full stack on the default engine; host time is rank hand-off, the event heap and metadata collectives, not payload copies",
		reps:    3,
		gen:     genCCSD,
		shape:   shapeCCSD,
		drivers: ccsdDrivers,
	},
	{
		name:    "contig",
		why:     "Fig. 3 put/get/acc 1 B-32 MiB on four platforms, 2 ranks: the data path (buffers, copies, accumulate arithmetic) with the scheduler idle; a scheduler change must leave it flat",
		reps:    3,
		hasObs:  true,
		gen:     genContig,
		shape:   shapeContig,
		drivers: contigDrivers,
	},
	{
		name:    "strided",
		why:     "Fig. 4 every platform x op x segment size, all transfer methods: descriptor work per byte (flatten, pack, plan compile, conflict tree, allocator), the opposite use of mpi/armcimpi from contig",
		reps:    5,
		hasObs:  true,
		gen:     genStrided,
		shape:   shapeStrided,
		drivers: stridedDrivers,
	},
	{
		name:    "scale",
		why:     "4096-rank CCSD + GA fan-out on xt5, ARMCI-MPI and dartmpi, MPI-3: the continuation engine, gather-at-root collectives and a ~1 GB heap; suite only, one repetition outlasts a driver run",
		reps:    1,
		gen:     genScale,
		shape:   func([]*bench.Figure) []check { return nil },
		drivers: scaleDrivers,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jitterPlatforms is the seed mapping: a non-zero seed scales the wire
// latency and link bandwidth of each Table II platform model by an
// independent factor in [1-seedJitter, 1+seedJitter]. The sweeps, rank
// counts and sizes stay the stock ones, so every seed does the same
// amount of host work and the virtual answers move by at most the
// jitter; what changes is event timing, hence interleavings and
// tie-breaks. README.md says why the coarser config fields cannot be
// used under the driver's cross-seed spread rule.
func jitterPlatforms(seed uint64) {
	if seed == 0 {
		return
	}
	x := seed
	factor := func() float64 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53) // [0, 1)
		return 1 + seedJitter*(2*u-1)
	}
	for _, p := range platform.All() {
		p.LatencyNs *= factor()
		p.Bandwidth *= factor()
	}
}

const seedJitter = 0.0025

func genCCSD(m *meter, smoke bool, _ *obs.Recorder) error {
	cfg := bench.DefaultFig6()
	if smoke {
		cfg = bench.QuickFig6()
	}
	ib := platform.Get(platform.InfiniBand)
	return m.call("bench.Fig6 ib", func() (*bench.Figure, error) { return bench.Fig6(ib, cfg, true) })
}

// sweepPlatforms is all four Table II platforms; the smoke keeps one.
func sweepPlatforms(smoke bool) []*platform.Platform {
	if smoke {
		return []*platform.Platform{platform.Get(platform.InfiniBand)}
	}
	return platform.All()
}

func genContig(m *meter, smoke bool, rec *obs.Recorder) error {
	cfg := bench.DefaultFig3()
	if smoke {
		cfg = bench.QuickFig3()
	}
	cfg.Obs = rec
	for _, p := range sweepPlatforms(smoke) {
		if err := m.call("bench.Fig3 "+p.Name, func() (*bench.Figure, error) { return bench.Fig3(p, cfg) }); err != nil {
			return err
		}
	}
	return nil
}

func genStrided(m *meter, smoke bool, rec *obs.Recorder) error {
	cfg := bench.DefaultFig4()
	if smoke {
		cfg = bench.QuickFig4()
	}
	cfg.Obs = rec
	for _, p := range sweepPlatforms(smoke) {
		for _, seg := range cfg.SegSizes {
			for _, op := range []bench.ContigOp{bench.OpGet, bench.OpAcc, bench.OpPut} {
				name := fmt.Sprintf("bench.Fig4 %s %s %dB", p.Name, op, seg)
				if err := m.call(name, func() (*bench.Figure, error) { return bench.Fig4(p, op, seg, cfg) }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func genScale(m *meter, smoke bool, _ *obs.Recorder) error {
	cfg := bench.QuickScale()
	if smoke {
		cfg.Ranks = []int{64}
		cfg.Params = nwchem.Params{NO: 2, NV: 16, Blk: 16, Iter: 1, Chunk: 1, FlopMult: 40}
		cfg.FanoutOwners, cfg.FanoutBlkElems = 8, 64
	}
	return m.call("bench.Scale", func() (*bench.Figure, error) { return bench.Scale(cfg) })
}
