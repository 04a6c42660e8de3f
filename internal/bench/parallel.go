package bench

// The scale exchange is a cross-node neighbor exchange on the Cray XT5
// model built directly on sim+fabric: the engine's and the fabric's own
// host cost per event, with no MPI or ARMCI above them. It uses host
// cores the way the figures do, by running whole jobs concurrently on
// the sweep (DESIGN.md, "Figure sweeps"); how fast the host gets
// through them is the benchmark's business (go run ./benchmark, the
// sim.exchange_events_per_s rows).

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ParallelScaleRun executes k identical copies of the scale exchange
// on the sweep's GOMAXPROCS workers: in each, every rank trades rounds
// messages with the rank half the machine away (always cross-node on
// the XT5 model), computing between sends. It returns the jobs' Events
// and Parks summed, their common FinalTime, and the host duration of
// the whole sweep.
func ParallelScaleRun(nranks, rounds, k int) (sim.Stats, time.Duration, error) {
	par := platform.Get(platform.CrayXT5).Params
	if nranks > par.MaxRanks() {
		return sim.Stats{}, 0, fmt.Errorf("bench: parallel scale run wants %d ranks, platform caps at %d", nranks, par.MaxRanks())
	}
	stats := make([]sim.Stats, max(k, 1))
	t0 := time.Now()
	err := sweep(runtime.GOMAXPROCS(0), len(stats), func(i int) error {
		eng := sim.NewEngine()
		m, err := fabric.NewMachine(eng, par, nranks)
		if err != nil {
			return err
		}
		err = eng.Run(nranks, scaleExchangeBody(m, nranks, rounds))
		m.Retire()
		stats[i] = eng.Stats()
		return err
	})
	d := time.Since(t0)
	if err != nil {
		return sim.Stats{}, 0, err
	}
	sum := stats[0]
	for i, st := range stats[1:] {
		if st != stats[0] {
			return sim.Stats{}, 0, fmt.Errorf("bench: exchange job %d gave %+v, job 0 %+v", i+1, st, stats[0])
		}
		sum.Events += st.Events
		sum.Parks += st.Parks
	}
	return sum, d, nil
}

// scaleExchangeBody is the rank body of the scale exchange.
func scaleExchangeBody(m *fabric.Machine, nranks, rounds int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		r := p.ID()
		partner := (r + nranks/2) % nranks
		for i := 0; i < rounds; i++ {
			m.Compute(p, float64(2000+37*(r%101)+11*i))
			m.Deliver(partner, &fabric.Msg{From: r, Kind: 1, Tag: i, Size: 1024 + 64*(r%17)}, fabric.XferOpt{})
		}
		for got := 0; got < rounds; got++ {
			m.Recv(p, fabric.Match{From: fabric.Any, Tag: fabric.Any})
		}
	}
}
