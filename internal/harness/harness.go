// Package harness assembles a complete simulated job: engine, fabric
// machine, MPI world, and one of the four ARMCI runtimes (native,
// ARMCI-MPI, data-server, or dartmpi), mirroring the paper's Figure 1
// software stacks. It is the entry point used by tests, benchmarks,
// examples, and the CLIs.
package harness

import (
	"errors"
	"fmt"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/dartmpi"
	"repro/internal/dataserver"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Impl selects the ARMCI implementation under the Global Arrays stack.
type Impl string

const (
	// ImplNative is the vendor-tuned baseline (Figure 1a).
	ImplNative Impl = "native"
	// ImplARMCIMPI is the paper's contribution (Figure 1b).
	ImplARMCIMPI Impl = "armci-mpi"
	// ImplDataServer is the prior two-sided approach the paper's
	// Related Work contrasts: a per-node data server over MPI
	// two-sided messaging (SectionIX).
	ImplDataServer Impl = "armci-ds"
	// ImplDartMPI is the locality-aware runtime in the DART-MPI style:
	// the ARMCI-MPI engine on its shared GMR windows, with large remote
	// transfers staged through the node leader.
	ImplDartMPI Impl = "dartmpi"
)

// ImplNames returns the valid implementation names in registry order
// (for CLI usage and error text).
func ImplNames() []string {
	return []string{string(ImplNative), string(ImplARMCIMPI), string(ImplDataServer), string(ImplDartMPI)}
}

// ParseImpl validates an implementation name from a CLI flag.
func ParseImpl(s string) (Impl, error) {
	switch Impl(s) {
	case ImplNative, ImplARMCIMPI, ImplDataServer, ImplDartMPI:
		return Impl(s), nil
	default:
		return "", fmt.Errorf("harness: unknown ARMCI implementation %q (want native, armci-mpi, armci-ds, or dartmpi)", s)
	}
}

// Job is one configured simulated run.
type Job struct {
	Eng  *sim.Engine
	M    *fabric.Machine
	Plat *platform.Platform
	Impl Impl
	Opt  armcimpi.Options

	MpiWorld    *mpi.World
	NativeWorld *native.World
	AMWorld     *armcimpi.World
	DSWorld     *dataserver.World
}

// NewJob builds the simulation stack for nranks ranks of the platform.
func NewJob(plat *platform.Platform, nranks int, impl Impl, opt armcimpi.Options) (*Job, error) {
	return NewJobObs(plat, nranks, impl, opt, nil)
}

// NewJobObs is NewJob with an observability recorder attached: the
// recorder opens a new trace process for this job, becomes the engine's
// scheduling observer, and is handed to every layer that emits events
// (fabric, MPI and through it ARMCI-MPI, the data server). rec may be
// nil: observability off.
func NewJobObs(plat *platform.Platform, nranks int, impl Impl, opt armcimpi.Options, rec *obs.Recorder) (*Job, error) {
	par := plat.Params
	if impl == ImplDataServer && par.CoresPerNode > 1 {
		// The data server consumes a core per node (SectionIX): the
		// remaining ranks share proportionally less compute.
		par.Flops *= float64(par.CoresPerNode-1) / float64(par.CoresPerNode)
	}
	eng := sim.NewEngine()
	m, err := fabric.NewMachine(eng, par, nranks)
	if err != nil {
		return nil, err
	}
	j := &Job{Eng: eng, M: m, Plat: plat, Impl: impl, Opt: opt}
	j.MpiWorld = mpi.NewWorld(m, &plat.MPI)
	if opt.UseMPI3 {
		j.MpiWorld.EnableMPI3()
	}
	switch impl {
	case ImplNative:
		j.NativeWorld = native.NewWorld(m, &plat.Native)
	case ImplARMCIMPI, ImplDartMPI:
		j.AMWorld = armcimpi.NewWorld(j.MpiWorld)
	case ImplDataServer:
		j.DSWorld = dataserver.NewWorld(m, &plat.Native)
	default:
		return nil, fmt.Errorf("harness: unknown implementation %q", impl)
	}
	if rec != nil {
		rec.BeginJob(fmt.Sprintf("%s/%s/n=%d", plat.Name, impl, nranks), eng, nranks)
		eng.Observe(rec)
		m.Obs = rec
		j.MpiWorld.Obs = rec
		if j.DSWorld != nil {
			j.DSWorld.Obs = rec
		}
	}
	return j, nil
}

// Runtime builds the per-rank ARMCI runtime handle; call from inside a
// rank body.
func (j *Job) Runtime(p *sim.Proc) armci.Runtime {
	r := j.MpiWorld.Rank(p)
	switch j.Impl {
	case ImplNative:
		return armci.NewDirect(j.NativeWorld.DirectWorld, r)
	case ImplDataServer:
		return armci.NewDirect(j.DSWorld.DirectWorld, r)
	case ImplDartMPI:
		return dartmpi.New(j.AMWorld, r, j.Opt)
	default:
		return armcimpi.New(j.AMWorld, r, j.Opt)
	}
}

// Run executes body on nranks ranks of the platform under the chosen
// implementation and returns the finished job for inspection (counters,
// tables, final virtual time).
func Run(plat *platform.Platform, nranks int, impl Impl, opt armcimpi.Options, body func(rt armci.Runtime)) (*Job, error) {
	return RunObs(plat, nranks, impl, opt, nil, func(j *Job, p *sim.Proc) error { body(j.Runtime(p)); return nil })
}

// RunObs builds a job with an observability recorder attached (may be
// nil), runs body on each of its nranks ranks and retires its machine
// when the run ends, failed or not (fabric.Machine.Retire): the
// returned job's counters and tables stay readable, its memory does
// not. The error is the first body error in virtual-time order (ranks
// run one at a time, so the first to return one), joined with the
// engine's own: a rank that fails before a collective leaves the others
// parked, and the deadlock that follows comes second.
func RunObs(plat *platform.Platform, nranks int, impl Impl, opt armcimpi.Options, rec *obs.Recorder, body func(j *Job, p *sim.Proc) error) (*Job, error) {
	j, err := NewJobObs(plat, nranks, impl, opt, rec)
	if err != nil {
		return nil, err
	}
	var first error
	err = j.Eng.Run(nranks, func(p *sim.Proc) {
		if err := body(j, p); err != nil && first == nil {
			first = err
		}
	})
	j.M.Retire()
	if err := errors.Join(first, err); err != nil {
		return nil, err
	}
	return j, nil
}

// TestPlatform returns a small, fast, fully featured platform for unit
// tests: low latencies keep virtual event counts small, and a nonzero
// pin cost exercises the registration model.
func TestPlatform() *platform.Platform {
	return &platform.Platform{
		System:       "test",
		Interconnect: "test-fabric",
		MPIVersion:   "sim",
		Params: fabric.Params{
			Name: "test", Nodes: 64, CoresPerNode: 2,
			LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
			LocalLatencyNs: 100, LocalBandwidth: 4e9,
			CopyRate: 4e9, Flops: 1e9,
			PageSize: 4096, PinPageNs: 0, BounceThreshold: 0,
			BounceRate: 1e9, UnpinnedRate: 0.5e9, AccumRate: 1e9,
			ShmCopyRate: 8e9,
		},
		Native: platform.Tuning{BandwidthFrac: 1, OpOverheadNs: 200, RmwRTTs: 1, PrepinAlloc: true},
		MPI:    platform.Tuning{BandwidthFrac: 0.9, OpOverheadNs: 400},
	}
}
