package bench

// The parallel-speedup sweep measures the sharded engine's host-time
// scaling on the 16k-rank scale workload: a cross-node neighbor
// exchange on the Cray XT5 model driven through the shard-confined
// fabric delivery path (fabric.DeliverSharded), the workload class the
// engine can decompose across host cores. The same run is
// repeated at each shard count; virtual results (event and park
// totals, final virtual time) must be identical at every point — the
// sweep fails otherwise — so the figure doubles as a determinism check.
//
// Events/sec numbers are HOST time and machine dependent: like
// BENCH_wallclock.json, the exported BENCH_parallel-speedup.json is a
// trajectory seed, not a byte-guarded regression artifact. The guarded
// artifacts and the golden schedules under internal/sim/testdata pin
// the engine's correctness instead.

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ParallelConfig sizes the sharded-engine speedup sweep.
type ParallelConfig struct {
	Ranks  int   // simulated process count
	Rounds int   // exchange rounds per rank
	Shards []int // host shard counts swept, ascending, starting at 1
}

// DefaultParallel is the 16k-rank sweep behind the exported figure.
func DefaultParallel() ParallelConfig {
	return ParallelConfig{Ranks: 16384, Rounds: 4, Shards: []int{1, 2, 4, 8}}
}

// QuickParallel is a smoke-test sweep (used by CI under the race
// detector) that still exercises multi-shard execution.
func QuickParallel() ParallelConfig {
	return ParallelConfig{Ranks: 256, Rounds: 2, Shards: []int{1, 2}}
}

// ParallelScaleRun executes the scale exchange once: every rank trades
// rounds messages with the rank half the machine away (always
// cross-node on the XT5 model), computing between sends, over the
// shard-confined delivery path. It returns the engine statistics and
// the host duration of the run.
func ParallelScaleRun(nranks, rounds, shards int) (sim.Stats, time.Duration, error) {
	plat := platform.Get(platform.CrayXT5)
	par := plat.Params
	if nranks > par.MaxRanks() {
		return sim.Stats{}, 0, fmt.Errorf("bench: parallel scale run wants %d ranks, platform caps at %d", nranks, par.MaxRanks())
	}
	eng := sim.NewEngine()
	harness.ApplyShards(eng, par, nranks, shards)
	m, err := fabric.NewMachine(eng, par, nranks)
	if err != nil {
		return sim.Stats{}, 0, err
	}
	t0 := time.Now()
	err = eng.Run(nranks, scaleExchangeBody(m, nranks, rounds))
	d := time.Since(t0)
	if err != nil {
		return sim.Stats{}, 0, err
	}
	return eng.Stats(), d, nil
}

// scaleExchangeBody is the rank body of the scale exchange, shared by
// the plain and observed runs so both execute the identical schedule.
func scaleExchangeBody(m *fabric.Machine, nranks, rounds int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		r := p.ID()
		partner := (r + nranks/2) % nranks
		for i := 0; i < rounds; i++ {
			m.Compute(p, float64(2000+37*(r%101)+11*i))
			msg := &fabric.Msg{From: r, Kind: 1, Tag: i, Size: 1024 + 64*(r%17)}
			m.DeliverSharded(p, partner, msg, fabric.XferOpt{})
		}
		for got := 0; got < rounds; got++ {
			m.Recv(p, func(*fabric.Msg) bool { return true })
		}
	}
}

// ParallelScaleRunObs is ParallelScaleRun with the sharded
// observability front attached: each shard records into a private
// recorder bound to its own virtual clock, and the returned Recorder is
// the deterministic shard-order merge — including the exact critical
// path when opt.CritPath is set (dependence-edge references carry
// their shard id, so the merged walk is identical at every shard
// count). Used by tests that pin multi-shard critical-path exactness.
func ParallelScaleRunObs(nranks, rounds, shards int, opt obs.Options) (*obs.Recorder, sim.Stats, error) {
	plat := platform.Get(platform.CrayXT5)
	par := plat.Params
	if nranks > par.MaxRanks() {
		return nil, sim.Stats{}, fmt.Errorf("bench: parallel scale run wants %d ranks, platform caps at %d", nranks, par.MaxRanks())
	}
	eng := sim.NewEngine()
	k := harness.ApplyShards(eng, par, nranks, shards)
	m, err := fabric.NewMachine(eng, par, nranks)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	sh := obs.NewSharded(opt, k)
	eng.ShardObservers = sh.Observers()
	m.CritFor = func(rank int) *critpath.Rec {
		return sh.Rec(eng.ShardOf(rank, nranks)).Crit()
	}
	sh.BeginJob(fmt.Sprintf("%s/scale-exchange/n=%d", plat.Name, nranks),
		func(s int) obs.Clock { return eng.ShardClock(s) }, nranks)
	if err := eng.Run(nranks, scaleExchangeBody(m, nranks, rounds)); err != nil {
		return nil, sim.Stats{}, err
	}
	return sh.Merge(), eng.Stats(), nil
}

// ParallelSpeedup runs the sweep and returns the figure: dispatched
// events per host second and the speedup relative to the first shard
// count, versus shard count. Any divergence in virtual results across
// shard counts is an error.
func ParallelSpeedup(cfg ParallelConfig) (*Figure, error) {
	fig := &Figure{
		Name:   "parallel-speedup",
		Title:  fmt.Sprintf("sharded engine speedup, %d-rank scale exchange (host time, machine dependent)", cfg.Ranks),
		XLabel: "shards",
		YLabel: "events/s | speedup vs 1 shard",
	}
	var ref sim.Stats
	var base float64
	for i, k := range cfg.Shards {
		st, d, err := ParallelScaleRun(cfg.Ranks, cfg.Rounds, k)
		if err != nil {
			return nil, fmt.Errorf("bench: parallel speedup @%d shards: %w", k, err)
		}
		if i == 0 {
			ref = st
		} else if st != ref {
			return nil, fmt.Errorf("bench: parallel sweep diverged at %d shards: %+v, want %+v", k, st, ref)
		}
		evps := float64(st.Events) / d.Seconds()
		if i == 0 {
			base = evps
		}
		fig.Add("scale-exchange (events/s)", float64(k), evps)
		fig.Add("speedup", float64(k), evps/base)
	}
	return fig, nil
}
