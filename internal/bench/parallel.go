package bench

// The scale exchange is the workload class the engine can decompose
// across host cores: a cross-node neighbor exchange on the Cray XT5
// model driven through the shard-confined fabric delivery path
// (fabric.DeliverSharded). Virtual results (event and park totals,
// final virtual time, every recorder report) are identical at every
// shard count; how fast the host gets there is the benchmark's
// business (go run ./benchmark, the sim.exchange_events_per_s rows).

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

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
			m.Recv(p, fabric.Match{From: fabric.Any, Tag: fabric.Any})
		}
	}
}

// ParallelScaleRunObs is ParallelScaleRun with a recorder attached, one
// private buffer per shard, each bound to its shard's virtual clock; the
// returned Recorder is the deterministic shard-order merge — including
// the exact critical path when opt.CritPath is set (dependence-edge
// references carry their shard id, so the merged walk is identical at
// every shard count). Used by tests that pin multi-shard critical-path
// exactness.
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
	rec := obs.NewSharded(opt, k)
	eng.ShardObservers = func(int) sim.Observer { return rec }
	m.Obs = rec
	part := make([]int, nranks)
	for r := range part {
		part[r] = eng.ShardOf(r, nranks)
	}
	rec.BeginShardedJob(fmt.Sprintf("%s/scale-exchange/n=%d", plat.Name, nranks),
		func(s int) obs.Clock { return eng.ShardClock(s) }, part)
	if err := eng.Run(nranks, scaleExchangeBody(m, nranks, rounds)); err != nil {
		return nil, sim.Stats{}, err
	}
	return rec.Merge(), eng.Stats(), nil
}
