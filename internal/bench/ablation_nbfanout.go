package bench

import (
	"fmt"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// NbFanoutConfig tunes the GA fan-out aggregation ablation: a 1-D
// global array whose patches span a growing number of owning
// processes, accessed with the per-owner operations issued blocking
// versus nonblocking-with-one-WaitAll.
type NbFanoutConfig struct {
	Owners   []int // spanned owner counts, ascending
	BlkElems int   // float64 elements per owner block
	Iters    int
}

// DefaultNbFanout spans up to 16 owners with 32 KB per owner.
func DefaultNbFanout() NbFanoutConfig {
	return NbFanoutConfig{Owners: []int{1, 2, 4, 8, 16}, BlkElems: 4096, Iters: 3}
}

// QuickNbFanout keeps the full owner axis (the aggregation win is the
// claim under test) but shrinks blocks and iterations.
func QuickNbFanout() NbFanoutConfig {
	return NbFanoutConfig{Owners: []int{1, 2, 4, 8, 16}, BlkElems: 512, Iters: 2}
}

func (c NbFanoutConfig) maxOwners() int { return c.Owners[len(c.Owners)-1] }

// fanout measures GA Put (to remote completion) and Get latency, in
// microseconds per operation, on nranks ranks: rank 0 issues a 1-D
// patch spanning k owners, for each k of owners (ascending), with
// blkElems float64 elements per owner, timed over iters operations
// after one warm-up. The patch starts at owner 1's block, so every
// spanned owner is remote to the issuing rank. Only rank 0 holds a
// buffer, so per-rank memory stays flat in nranks. blocking selects
// the GA fan-out discipline: per-owner operations issued blocking, or
// nonblocking with one aggregated wait.
func fanout(plat *platform.Platform, impl harness.Impl, nranks int, opt armcimpi.Options, rec *obs.Recorder, blocking bool, owners []int, blkElems, iters int) (put, get Series, err error) {
	_, err = harness.RunObs(plat, nranks, impl, opt, rec, func(j *harness.Job, pr *sim.Proc) error {
		env := ga.NewEnv(j.Runtime(pr), j.MpiWorld.Rank(pr))
		env.BlockingFanout = blocking
		a, err := env.Create("fanout", ga.F64, []int{nranks * blkElems})
		if err != nil {
			return err
		}
		rt := env.Rt
		var vals []float64
		if env.Me() == 0 {
			vals = make([]float64, owners[len(owners)-1]*blkElems)
		}
		for _, k := range owners {
			env.Sync()
			if env.Me() == 0 {
				lo, hi, v := []int{blkElems}, []int{blkElems*(1+k) - 1}, vals[:k*blkElems]
				if err := a.Put(lo, hi, v); err != nil {
					return err
				}
				rt.AllFence()
				start := rt.Proc().Now()
				for i := 0; i < iters; i++ {
					if err := a.Put(lo, hi, v); err != nil {
						return err
					}
					rt.AllFence()
				}
				put.X = append(put.X, float64(k))
				put.Y = append(put.Y, perOpMicros(rt.Proc().Now()-start, iters))
				if err := a.Get(lo, hi, v); err != nil {
					return err
				}
				start = rt.Proc().Now()
				for i := 0; i < iters; i++ {
					if err := a.Get(lo, hi, v); err != nil {
						return err
					}
				}
				get.X = append(get.X, float64(k))
				get.Y = append(get.Y, perOpMicros(rt.Proc().Now()-start, iters))
			}
			env.Sync()
		}
		return a.Destroy()
	})
	return put, get, err
}

// perOpMicros converts an iterated elapsed time to microseconds per
// operation.
func perOpMicros(d sim.Time, iters int) float64 {
	return d.Seconds() / float64(iters) * 1e6
}

// AblationNbFanout regenerates the GA fan-out aggregation ablation:
// per-operation latency of GA Put (to remote completion) and GA Get
// versus the number of owning processes the patch spans, with the
// per-owner operations issued blocking versus nonblocking + WaitAll.
// The blocking discipline pays a completion round trip (put) or a full
// transfer wait (get) per owner; aggregation overlaps them, so the gap
// must widen with the owner count.
func AblationNbFanout(plat *platform.Platform, cfg NbFanoutConfig) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-nbfanout",
		Title:  fmt.Sprintf("GA fan-out aggregation ablation, %s", plat.System),
		XLabel: "owning processes spanned",
		YLabel: "latency per operation (microseconds)",
	}
	// MPI-3 is required (under MPI-2 the nonblocking surface
	// degenerates to blocking calls) and the shm fast path is disabled
	// so every owner pays the RMA completion round trip — the cost the
	// aggregated FlushAll amortizes.
	opt := benchOptions()
	opt.UseMPI3 = true
	opt.NoShm = true
	for _, blocking := range []bool{true, false} {
		label := "nonblocking"
		if blocking {
			label = "blocking"
		}
		put, get, err := fanout(plat, harness.ImplARMCIMPI, cfg.maxOwners()+1, opt, nil, blocking, cfg.Owners, cfg.BlkElems, cfg.Iters)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation-nbfanout %s/%s: %w", plat.Name, label, err)
		}
		put.Label, get.Label = "put ("+label+")", "get ("+label+")"
		fig.Series = append(fig.Series, put, get)
	}
	return fig, nil
}
