package bench

import (
	"fmt"
	"io"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Table2 writes the paper's Table II platform characteristics.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "# Table II — experimental platforms and system characteristics")
	fmt.Fprintf(w, "%-28s %6s  %-6s %-6s %-15s %s\n",
		"System", "Nodes", "Cores", "Mem", "Interconnect", "MPI Version")
	for _, p := range platform.All() {
		fmt.Fprintln(w, p.TableII())
	}
	fmt.Fprintln(w)
}

// AblationRmw compares read-modify-write latency under the MPI-2
// mutex emulation (SectionV.D) against native NIC atomics and the
// MPI-3 fetch-and-op extension (SectionVIII.B). Returns mean latency
// in microseconds per variant.
func AblationRmw(plat *platform.Platform, iters int) (map[string]float64, error) {
	out := map[string]float64{}
	variants := []struct {
		name string
		impl harness.Impl
		mpi3 bool
	}{
		{"native-atomic", harness.ImplNative, false},
		{"mpi2-mutex", harness.ImplARMCIMPI, false},
		{"mpi3-fetchop", harness.ImplARMCIMPI, true},
	}
	for _, v := range variants {
		opt := benchOptions()
		opt.UseMPI3 = v.mpi3
		var lat sim.Time
		_, err := harness.RunObs(plat, 2*plat.CoresPerNode, v.impl, opt, nil, func(j *harness.Job, p *sim.Proc) error {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(8)
			if err != nil {
				return err
			}
			if rt.Rank() == plat.CoresPerNode { // remote rank hammers rank 0
				start := rt.Proc().Now()
				for i := 0; i < iters; i++ {
					if _, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 1); err != nil {
						return err
					}
				}
				lat = (rt.Proc().Now() - start) / sim.Time(iters)
			}
			rt.Barrier()
			return rt.Free(addrs[rt.Rank()])
		})
		if err != nil {
			return nil, err
		}
		out[v.name] = lat.Micros()
	}
	return out, nil
}

// AblationAccessModes measures the SectionVIII.A access-mode
// extension: n processes repeatedly get from one target under the
// default conflicting mode (exclusive epochs, serialized) versus the
// read-only hint (shared epochs, concurrent). Returns total phase time
// in microseconds per mode.
func AblationAccessModes(plat *platform.Platform, readers, iters, size int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mode := range []armci.AccessMode{armci.ModeConflicting, armci.ModeReadOnly} {
		var phase sim.Time
		_, err := harness.RunObs(plat, readers+1, harness.ImplARMCIMPI, benchOptions(), nil, func(j *harness.Job, p *sim.Proc) error {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(size)
			if err != nil {
				return err
			}
			if mode != armci.ModeConflicting {
				if err := rt.SetAccessMode(mode, addrs[0]); err != nil {
					return err
				}
			}
			rt.Barrier()
			start := rt.Proc().Now()
			if rt.Rank() > 0 {
				local := rt.MallocLocal(size)
				for i := 0; i < iters; i++ {
					if err := rt.Get(addrs[0], local, size); err != nil {
						return err
					}
				}
			}
			rt.Barrier()
			if rt.Rank() == 0 {
				phase = rt.Proc().Now() - start
			}
			return rt.Free(addrs[rt.Rank()])
		})
		if err != nil {
			return nil, err
		}
		out[mode.String()] = phase.Micros()
	}
	return out, nil
}

// AblationStridedMethods reports strided put bandwidth (GB/s) per
// ARMCI-MPI method at a fixed shape, the per-method summary behind
// Figure 4's method choice (SectionVII.D picked batched on BG/P and
// direct elsewhere).
func AblationStridedMethods(plat *platform.Platform, segBytes, nsegs, iters int) (map[string]float64, error) {
	return lastPoints(fig4Probes(plat, OpPut, segBytes, []int{nsegs}, iters, nil))
}

// AblationBatchSize sweeps the batched method's B parameter
// (SectionVI.A: "issues up to B operations per epoch ... default 0,
// or unlimited"), showing the epoch-amortization tradeoff.
func AblationBatchSize(plat *platform.Platform, segBytes, nsegs int, batches []int, iters int) (map[int]float64, error) {
	base := probe{plat: plat, target: plat.CoresPerNode, op: OpPut, xs: []int{nsegs}, seg: segBytes, iters: iters}
	opt := benchOptions()
	opt.StridedMethod = armcimpi.MethodBatched
	table := make([]probe, len(batches))
	for i, b := range batches {
		opt.BatchSize = b
		table[i] = base.as(fmt.Sprintf("B=%d", b), harness.ImplARMCIMPI, opt)
	}
	bw, err := lastPoints(table)
	if err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for i, b := range batches {
		out[b] = bw[table[i].label]
	}
	return out, nil
}

// lastPoints runs a table of one-point probes and returns each probe's
// bandwidth by label.
func lastPoints(table []probe) (map[string]float64, error) {
	fig := &Figure{Name: "ablation"}
	if err := runTable(fig, table, nil); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range fig.Series {
		out[s.Label] = s.Last()
	}
	return out, nil
}

// AblationAsyncProgress quantifies SectionV.F's asynchronous-progress
// requirement: the same contiguous put loop with the MPI library's
// async progress enabled (the standard's behaviour, which ARMCI-MPI
// relies on) versus a library that only makes progress when the target
// enters MPI, modeled as a mean service delay. Returns mean op latency
// in microseconds.
func AblationAsyncProgress(plat *platform.Platform, delayNs float64, iters int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mode := range []string{"async-progress", "no-async-progress"} {
		tuned := *plat // copy; adjust the MPI tuning
		if mode == "no-async-progress" {
			mpiTun := tuned.MPI
			mpiTun.NoProgressDelayNs = delayNs
			tuned.MPI = mpiTun
		}
		// A remote rank puts 1 KiB to rank 0.
		elapsed, err := measure(probe{label: mode, plat: &tuned, impl: harness.ImplARMCIMPI, opt: benchOptions(),
			origin: plat.CoresPerNode, op: OpPut, xs: []int{1024}, iters: iters})
		if err != nil {
			return nil, err
		}
		out[mode] = (elapsed[0] / sim.Time(iters)).Micros()
	}
	return out, nil
}

// AblationMPI3Backend compares the paper's MPI-2 design against the
// SectionVIII.B MPI-3 backend (lock-all/flush epochless mode, request
// operations, native atomics) on the CCSD proxy — the forward-looking
// experiment the paper's gap analysis motivates. Returns the virtual
// phase time in milliseconds, the maximum over ranks as in Figure 6.
func AblationMPI3Backend(plat *platform.Platform, cores int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mode := range []string{"mpi2-epochs", "mpi3-lockall"} {
		opt := benchOptions()
		opt.UseMPI3 = mode == "mpi3-lockall"
		phase, err := NWChemPhase(plat, harness.ImplARMCIMPI, cores, opt, nil, nwchemParams(), false)
		if err != nil {
			return nil, err
		}
		out[mode] = phase.Seconds() * 1e3
	}
	return out, nil
}

// AblationDataServer reproduces the paper's Related Work comparison
// (SectionIX): ARMCI over a per-node two-sided data server versus
// ARMCI-MPI's one-sided RMA versus native. Reports (a) contiguous get
// bandwidth with several concurrent origins hammering one node — the
// data-server bottleneck — and (b) the CCSD proxy phase time including
// the consumed core. Values: GB/s and virtual ms respectively.
func AblationDataServer(plat *platform.Platform, origins, iters, size int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI, harness.ImplDataServer} {
		nranks := origins*plat.CoresPerNode + 1
		if nranks > plat.MaxRanks() {
			nranks = plat.MaxRanks()
		}
		var total sim.Time
		var moved int64
		_, err := harness.RunObs(plat, nranks, impl, benchOptions(), nil, func(j *harness.Job, p *sim.Proc) error {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(size)
			if err != nil {
				return err
			}
			// One origin per remote node gets from rank 0 concurrently.
			isOrigin := rt.Rank() != 0 && rt.Rank()%plat.CoresPerNode == 0
			local := rt.MallocLocal(size)
			if isOrigin {
				// Warm up (registration caches) before timing.
				if err := rt.Get(addrs[0], local, size); err != nil {
					return err
				}
			}
			rt.Barrier()
			start := rt.Proc().Now()
			if isOrigin {
				for i := 0; i < iters; i++ {
					if err := rt.Get(addrs[0], local, size); err != nil {
						return err
					}
				}
				moved += int64(size) * int64(iters)
			}
			rt.Barrier()
			if rt.Rank() == 0 {
				total = rt.Proc().Now() - start
			}
			return rt.Free(addrs[rt.Rank()])
		})
		if err != nil {
			return nil, err
		}
		out[string(impl)] = bandwidth(moved, total)
	}
	// CCSD phase times.
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI, harness.ImplDataServer} {
		tm, err := NWChemPhase(plat, impl, 16, benchOptions(), nil, nwchemParams(), false)
		if err != nil {
			return nil, err
		}
		out["ccsd-"+string(impl)] = tm.Seconds() * 1e3
	}
	return out, nil
}
