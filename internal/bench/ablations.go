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

// Ablations returns every panel of -fig ablations, in the order
// results/ablations.txt prints them and at the parameters that file
// and EXPERIMENTS.md quote: the strided-method panel on each platform,
// the others on InfiniBand.
func Ablations() ([]*Figure, error) {
	ib := platform.Get(platform.InfiniBand)
	var figs []*Figure
	add := func(f *Figure, err error) error {
		figs = append(figs, f)
		return err
	}
	if err := add(AblationRmw(ib, 16)); err != nil {
		return nil, err
	}
	if err := add(AblationAccessModes(ib, 4, 8, 1<<16)); err != nil {
		return nil, err
	}
	for _, p := range platform.All() {
		if err := add(AblationStridedMethods(p, 1024, 256, 3)); err != nil {
			return nil, err
		}
	}
	if err := add(AblationBatchSize(ib, 256, 64, []int{1, 4, 16, 64, 0}, 3)); err != nil {
		return nil, err
	}
	if err := add(AblationAsyncProgress(ib, 20000, 16)); err != nil {
		return nil, err
	}
	if err := add(AblationMPI3Backend(ib, 8)); err != nil {
		return nil, err
	}
	bw, ccsd, err := AblationDataServer(ib, 4, 3, 1<<20)
	if err != nil {
		return nil, err
	}
	return append(figs, bw, ccsd), nil
}

// AblationRmw compares read-modify-write latency under the MPI-2
// mutex emulation (SectionV.D) against native NIC atomics and the
// MPI-3 fetch-and-op extension (SectionVIII.B): one remote rank's mean
// fetch-and-add latency per variant, at x = 8 bytes per op.
func AblationRmw(plat *platform.Platform, iters int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-rmw",
		Title:  fmt.Sprintf("SectionV.D read-modify-write latency, %s", plat.System),
		XLabel: "bytes per op",
		YLabel: "latency (us/op)",
	}
	variants := []struct {
		name string
		impl harness.Impl
		mpi3 bool
	}{
		{"native-atomic", harness.ImplNative, false},
		{"mpi3-fetchop", harness.ImplARMCIMPI, true},
		{"mpi2-mutex", harness.ImplARMCIMPI, false},
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
		fig.Add(v.name, 8, lat.Micros())
	}
	return fig, nil
}

// AblationAccessModes measures the SectionVIII.A access-mode
// extension: readers processes each get iters times size bytes from
// one target under the default conflicting mode (exclusive epochs,
// serialized) versus the read-only hint (shared epochs, concurrent).
// Each mode's series holds the phase time at x = size.
func AblationAccessModes(plat *platform.Platform, readers, iters, size int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-access-modes",
		Title:  fmt.Sprintf("SectionVIII.A access modes, %d readers x %d gets, %s", readers, iters, plat.System),
		XLabel: "bytes per get",
		YLabel: "phase time (us)",
	}
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
		fig.Add(mode.String(), float64(size), phase.Micros())
	}
	return fig, nil
}

// AblationStridedMethods reports strided put bandwidth per ARMCI-MPI
// method, and native's, at one shape: nsegs segments of segBytes, the
// per-method summary behind Figure 4's method choice (SectionVII.D
// picked batched on BG/P and direct elsewhere).
func AblationStridedMethods(plat *platform.Platform, segBytes, nsegs, iters int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-strided-" + plat.Name,
		Title:  fmt.Sprintf("SectionVII.D strided put bandwidth per method, %s, %d-byte segments", plat.System, segBytes),
		XLabel: "number of contiguous segments",
		YLabel: "bandwidth (GB/s)",
	}
	if err := runTable(fig, fig4Probes(plat, OpPut, segBytes, []int{nsegs}, iters, nil), nil); err != nil {
		return nil, err
	}
	return fig, nil
}

// AblationBatchSize sweeps the batched method's B parameter
// (SectionVI.A: "issues up to B operations per epoch ... default 0,
// or unlimited"), one series per B: the epoch-amortization tradeoff.
func AblationBatchSize(plat *platform.Platform, segBytes, nsegs int, batches []int, iters int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-batch",
		Title:  fmt.Sprintf("SectionVI.A batched-method epoch size B, %s, %d-byte segments", plat.System, segBytes),
		XLabel: "number of contiguous segments",
		YLabel: "bandwidth (GB/s)",
	}
	base := probe{plat: plat, target: plat.CoresPerNode, op: OpPut, xs: []int{nsegs}, seg: segBytes, iters: iters}
	opt := benchOptions()
	opt.StridedMethod = armcimpi.MethodBatched
	table := make([]probe, len(batches))
	for i, b := range batches {
		label := fmt.Sprintf("B=%d", b)
		if b == 0 {
			label = "B=unlimited"
		}
		opt.BatchSize = b
		table[i] = base.as(label, harness.ImplARMCIMPI, opt)
	}
	if err := runTable(fig, table, nil); err != nil {
		return nil, err
	}
	return fig, nil
}

// AblationAsyncProgress quantifies SectionV.F's asynchronous-progress
// requirement: the same contiguous put loop with the MPI library's
// async progress enabled (the standard's behaviour, which ARMCI-MPI
// relies on) versus a library that only makes progress when the target
// enters MPI, modeled as a mean service delay of delayNs. Each series
// holds the mean latency of a remote rank's 1 KiB puts.
func AblationAsyncProgress(plat *platform.Platform, delayNs float64, iters int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-async-progress",
		Title:  fmt.Sprintf("SectionV.F asynchronous progress, %g us service delay when disabled, %s", delayNs/1e3, plat.System),
		XLabel: "bytes per put",
		YLabel: "latency (us/op)",
	}
	const size = 1024
	for _, mode := range []string{"async-progress", "no-async-progress"} {
		tuned := *plat // copy; adjust the MPI tuning
		if mode == "no-async-progress" {
			tuned.MPI.NoProgressDelayNs = delayNs
		}
		elapsed, err := measure(probe{label: mode, plat: &tuned, impl: harness.ImplARMCIMPI, opt: benchOptions(),
			origin: plat.CoresPerNode, op: OpPut, xs: []int{size}, iters: iters})
		if err != nil {
			return nil, err
		}
		fig.Add(mode, size, (elapsed[0] / sim.Time(iters)).Micros())
	}
	return fig, nil
}

// AblationMPI3Backend compares the paper's MPI-2 design against the
// SectionVIII.B MPI-3 backend (lock-all/flush epochless mode, request
// operations, native atomics) on the CCSD proxy — the forward-looking
// experiment the paper's gap analysis motivates. Each series holds the
// virtual phase time, the maximum over ranks as in Figure 6.
func AblationMPI3Backend(plat *platform.Platform, cores int) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-mpi3",
		Title:  fmt.Sprintf("SectionVIII.B MPI-3 backend vs the paper's MPI-2 design, CCSD proxy, %s", plat.System),
		XLabel: "processes",
		YLabel: "phase time (virtual ms)",
	}
	for _, mode := range []string{"mpi2-epochs", "mpi3-lockall"} {
		opt := benchOptions()
		opt.UseMPI3 = mode == "mpi3-lockall"
		phase, err := NWChemPhase(plat, harness.ImplARMCIMPI, cores, opt, nil, nwchemParams(), false)
		if err != nil {
			return nil, err
		}
		fig.Add(mode, float64(cores), phase.Seconds()*1e3)
	}
	return fig, nil
}

// AblationDataServer reproduces the paper's Related Work comparison
// (SectionIX): ARMCI over a per-node two-sided data server versus
// ARMCI-MPI's one-sided RMA versus native, one series per runtime:
// (bw) contiguous get bandwidth with several concurrent origins
// hammering one node — the data-server bottleneck — and (ccsd) the
// CCSD proxy phase time including the consumed core.
func AblationDataServer(plat *platform.Platform, origins, iters, size int) (bw, ccsd *Figure, err error) {
	bw = &Figure{
		Name:   "ablation-dataserver-bw",
		Title:  fmt.Sprintf("SectionIX data server vs one-sided stacks, %d-byte gets from one node, %s", size, plat.System),
		XLabel: "concurrent getters",
		YLabel: "aggregate bandwidth (GB/s)",
	}
	const cores = 16
	ccsd = &Figure{
		Name:   "ablation-dataserver-ccsd",
		Title:  fmt.Sprintf("SectionIX data server vs one-sided stacks, CCSD proxy, %s", plat.System),
		XLabel: "processes",
		YLabel: "phase time (virtual ms)",
	}
	nranks := min(origins*plat.CoresPerNode+1, plat.MaxRanks())
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI, harness.ImplDataServer} {
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
			return nil, nil, err
		}
		bw.Add(string(impl), float64(origins), bandwidth(moved, total))
		tm, err := NWChemPhase(plat, impl, cores, benchOptions(), nil, nwchemParams(), false)
		if err != nil {
			return nil, nil, err
		}
		ccsd.Add(string(impl), cores, tm.Seconds()*1e3)
	}
	return bw, ccsd, nil
}
