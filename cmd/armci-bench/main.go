// Command armci-bench regenerates the communication figures of the
// paper (Figures 3, 4, and 5) and the ablation tables on the simulated
// platforms.
//
// Usage:
//
//	armci-bench -fig 3 [-platform bgp|ib|xt5|xe6] [-quick]
//	armci-bench -fig 4 [-platform ...] [-op get|put|acc] [-quick]
//	armci-bench -fig 5 [-quick]
//	armci-bench -fig ablation-shm [-platform ...] [-quick]
//	armci-bench -fig ablation-nbfanout [-platform ...] [-quick]
//	armci-bench -fig ablation-locality [-platform ...] [-quick]
//	armci-bench -fig ablations
//	armci-bench -fig table2
//	armci-bench -fig scale [-quick]
//
// With no -platform, figure sweeps run on all four platforms. A
// combined -fig figN-plat spelling (e.g. -fig fig3-ib) selects one
// figure on one platform, matching the BENCH_<name>.json artifact
// names. Output is gnuplot-style columns on stdout.
//
// The scale figure sweeps the CCSD proxy and GA fan-out shapes to
// 4096-16384 simulated ranks on the Cray XT5 model. Scale is excluded
// from -fig all because its jobs dwarf every other sweep. (What the
// simulator costs the host is measured by go run ./benchmark.)
//
// Runtime tuning (applied to every job a sweep constructs; an
// ablation's own axis still overrides these):
//
//	-batch n            batched-method operations per epoch (0 = unlimited)
//	-strided-method m   conservative, batched, iov-direct, direct, or auto
//	-iov-method m       same names, for PutV/GetV/AccV
//	-runtime name       add this ARMCI runtime as an extra series to the
//	                    Figure 3 comparison (native, armci-mpi, armci-ds,
//	                    or dartmpi)
//
// Observability (the figures that record: 3, 4, 5, ablation-shm,
// ablation-locality, scale; with any other figure these flags are an
// error):
//
//	-stats         print per-rank metrics (lock waits, bytes moved
//	               contiguous vs packed, epoch flushes, ...) after the runs
//	-trace f.json  write a Chrome trace_event file viewable in
//	               chrome://tracing or https://ui.perfetto.dev
//	-profile       attribute each operation's virtual time to phases
//	               (lock wait, pack, shm copy, wire, target processing)
//	               and print an mpiP-style report: top operations, phase
//	               percentages, hottest rank pairs, link utilization.
//	               With -json dir, also writes dir/PROF_<fig>.json
//	-critpath      record the happens-before graph of every job and
//	               print the exact critical path: which operations,
//	               wait chains, and ranks the end-to-end virtual time
//	               actually decomposes into (the per-job segment sums
//	               equal the makespans exactly), side by side with the
//	               flat profiler shares. With -json dir, also writes
//	               dir/CRIT_<fig>.json
//	-json dir      also write each figure as dir/BENCH_<name>.json
//
// All output is in deterministic virtual time: repeat runs of the same
// configuration produce byte-identical stats, trace, and JSON files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

func main() {
	fig := flag.String("fig", "3", "what to regenerate: 3, 4, 5, 6? use nwchem-bench; ablation-shm, ablations, table2, all")
	plat := flag.String("platform", "", "platform (bgp, ib, xt5, xe6); empty = all")
	op := flag.String("op", "", "operation filter for fig 4 (get, put, acc); empty = all")
	quick := flag.Bool("quick", false, "reduced sweeps")
	stats := flag.Bool("stats", false, "print per-rank observability metrics after the figure sweeps")
	trace := flag.String("trace", "", "write a Chrome trace_event JSON file covering the figure sweeps")
	profile := flag.Bool("profile", false, "attribute per-operation virtual time to phases and print an mpiP-style report")
	critpath := flag.Bool("critpath", false, "record dependence chains and print the exact critical-path report (with -json, also CRIT_<fig>.json)")
	jsonDir := flag.String("json", "", "also write each figure as BENCH_<name>.json into this directory")
	batch := flag.Int("batch", -1, "batched-method operations per epoch (0 = unlimited; -1 = default)")
	stridedMethod := flag.String("strided-method", "", "strided transfer method (conservative, batched, iov-direct, direct, auto)")
	iovMethod := flag.String("iov-method", "", "I/O vector transfer method (conservative, batched, iov-direct, auto)")
	runtimeName := flag.String("runtime", "",
		fmt.Sprintf("extra ARMCI runtime series for the Figure 3 comparison (%s)",
			strings.Join(harness.ImplNames(), ", ")))
	flag.Parse()

	if *runtimeName != "" {
		impl, err := harness.ParseImpl(*runtimeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "armci-bench:", err)
			os.Exit(1)
		}
		bench.ExtraImpls = append(bench.ExtraImpls, impl)
	}
	if err := installTweak(*batch, *stridedMethod, *iovMethod); err != nil {
		fmt.Fprintln(os.Stderr, "armci-bench:", err)
		os.Exit(1)
	}
	if err := run(*fig, *plat, *op, *quick, *stats, *profile, *critpath, *trace, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "armci-bench:", err)
		os.Exit(1)
	}
}

// recording lists the figures whose jobs take the recorder.
var recording = []string{"3", "4", "5", "ablation-shm", "ablation-locality", "scale"}

// checkObsFigure rejects, at parse time, an observability flag on a
// figure that records nothing: the report would come out empty
// ("(no metrics recorded)", a top-operations table with no rows) and
// the run would still exit 0.
func checkObsFigure(fig string, stats, profile, critpath bool, trace string) error {
	if fig == "all" || slices.Contains(recording, fig) {
		return nil
	}
	var set []string
	if stats {
		set = append(set, "-stats")
	}
	if profile {
		set = append(set, "-profile")
	}
	if critpath {
		set = append(set, "-critpath")
	}
	if trace != "" {
		set = append(set, "-trace")
	}
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s: -fig %s records nothing; the figures that do are %s",
		strings.Join(set, "/"), fig, strings.Join(recording, ", "))
}

// installTweak translates the runtime-tuning flags into the bench
// package's Options hook. With no flag set, no hook is installed and
// the sweeps run on pure defaults.
func installTweak(batch int, stridedMethod, iovMethod string) error {
	if batch < 0 && stridedMethod == "" && iovMethod == "" {
		return nil
	}
	var sm, im armcimpi.Method
	var err error
	if stridedMethod != "" {
		if sm, err = armcimpi.ParseMethod(stridedMethod); err != nil {
			return err
		}
	}
	if iovMethod != "" {
		if im, err = armcimpi.ParseMethod(iovMethod); err != nil {
			return err
		}
	}
	bench.Tweak = func(opt *armcimpi.Options) {
		if batch >= 0 {
			opt.BatchSize = batch
		}
		if stridedMethod != "" {
			opt.StridedMethod = sm
		}
		if iovMethod != "" {
			opt.IOVMethod = im
		}
	}
	return nil
}

func platforms(name string) ([]*platform.Platform, error) {
	if name == "" {
		return platform.All(), nil
	}
	p, err := platform.Lookup(name)
	if err != nil {
		return nil, err
	}
	return []*platform.Platform{p}, nil
}

func run(fig, plat, opFilter string, quick, stats, profile, critpath bool, traceFile, jsonDir string) error {
	// Accept the combined figN-plat spelling used by the guarded
	// artifact names: -fig fig3-ib == -fig 3 -platform ib.
	profName := fig
	if rest, ok := strings.CutPrefix(fig, "fig"); ok {
		if i := strings.IndexByte(rest, '-'); i > 0 {
			figPlat := rest[i+1:]
			if plat != "" && plat != figPlat {
				return fmt.Errorf("-fig %s conflicts with -platform %s", fig, plat)
			}
			fig, plat = rest[:i], figPlat
		}
	}
	switch fig {
	case "3", "4", "5", "ablation-shm", "ablation-nbfanout", "ablation-locality", "ablations", "table2", "scale", "all":
	default:
		return fmt.Errorf("unknown -fig %q", fig)
	}
	if err := checkObsFigure(fig, stats, profile, critpath, traceFile); err != nil {
		return err
	}
	var rec *obs.Recorder
	if stats || profile || critpath || traceFile != "" {
		rec = obs.New(obs.Options{Trace: traceFile != "", Profile: profile, CritPath: critpath})
	}
	if err := runFigures(fig, plat, opFilter, quick, rec, jsonDir); err != nil {
		return err
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if stats {
		rec.WriteStats(os.Stdout)
	}
	if profile {
		pr := rec.Prof()
		if err := pr.WriteReport(os.Stdout); err != nil {
			return err
		}
		if jsonDir != "" {
			path := filepath.Join(jsonDir, "PROF_"+profName+".json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := pr.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "armci-bench: wrote", path)
		}
	}
	if critpath {
		cr := rec.Crit()
		if err := cr.WriteReport(os.Stdout); err != nil {
			return err
		}
		if jsonDir != "" {
			path := filepath.Join(jsonDir, "CRIT_"+profName+".json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := cr.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "armci-bench: wrote", path)
		}
	}
	return nil
}

// emit prints a figure and, when a JSON directory was requested, also
// writes its machine-readable BENCH_<name>.json form.
func emit(f *bench.Figure, jsonDir string) error {
	f.Print(os.Stdout)
	if jsonDir == "" {
		return nil
	}
	path, err := f.WriteJSONFile(jsonDir)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "armci-bench: wrote", path)
	return nil
}

func runFigures(fig, plat, opFilter string, quick bool, rec *obs.Recorder, jsonDir string) error {
	if fig == "table2" || fig == "all" {
		bench.Table2(os.Stdout)
		if fig == "table2" {
			return nil
		}
	}
	if fig == "3" || fig == "all" {
		cfg := bench.DefaultFig3()
		if quick {
			cfg = bench.QuickFig3()
		}
		cfg.Obs = rec
		ps, err := platforms(plat)
		if err != nil {
			return err
		}
		for _, p := range ps {
			f, err := bench.Fig3(p, cfg)
			if err != nil {
				return err
			}
			if err := emit(f, jsonDir); err != nil {
				return err
			}
		}
		if fig == "3" {
			return nil
		}
	}
	if fig == "4" || fig == "all" {
		cfg := bench.DefaultFig4()
		if quick {
			cfg = bench.QuickFig4()
		}
		cfg.Obs = rec
		ops := []bench.ContigOp{bench.OpGet, bench.OpAcc, bench.OpPut}
		if opFilter != "" {
			ops = []bench.ContigOp{bench.ContigOp(opFilter)}
		}
		ps, err := platforms(plat)
		if err != nil {
			return err
		}
		for _, p := range ps {
			for _, seg := range cfg.SegSizes {
				for _, o := range ops {
					f, err := bench.Fig4(p, o, seg, cfg)
					if err != nil {
						return err
					}
					if err := emit(f, jsonDir); err != nil {
						return err
					}
				}
			}
		}
		if fig == "4" {
			return nil
		}
	}
	if fig == "5" || fig == "all" {
		cfg := bench.DefaultFig5()
		if quick {
			cfg = bench.QuickFig5()
		}
		cfg.Obs = rec
		f, err := bench.Fig5(cfg)
		if err != nil {
			return err
		}
		if err := emit(f, jsonDir); err != nil {
			return err
		}
		if fig == "5" {
			return nil
		}
	}
	if fig == "ablation-shm" || fig == "all" {
		cfg := bench.DefaultShmAblation()
		if quick {
			cfg = bench.QuickShmAblation()
		}
		cfg.Obs = rec
		// Default to InfiniBand (the platform the shm acceptance
		// criterion is stated on); -platform selects another.
		name := plat
		if name == "" {
			name = platform.InfiniBand
		}
		p, err := platform.Lookup(name)
		if err != nil {
			return err
		}
		f, err := bench.AblationShm(p, cfg)
		if err != nil {
			return err
		}
		if err := emit(f, jsonDir); err != nil {
			return err
		}
		if fig == "ablation-shm" {
			return nil
		}
	}
	if fig == "ablation-nbfanout" || fig == "all" {
		cfg := bench.DefaultNbFanout()
		if quick {
			cfg = bench.QuickNbFanout()
		}
		// Default to InfiniBand, where the acceptance criterion (the
		// nonblocking fan-out strictly faster from 4 owners) is stated.
		name := plat
		if name == "" {
			name = platform.InfiniBand
		}
		p, err := platform.Lookup(name)
		if err != nil {
			return err
		}
		f, err := bench.AblationNbFanout(p, cfg)
		if err != nil {
			return err
		}
		if err := emit(f, jsonDir); err != nil {
			return err
		}
		if fig == "ablation-nbfanout" {
			return nil
		}
	}
	if fig == "ablation-locality" || fig == "all" {
		cfg := bench.DefaultLocalityAblation()
		if quick {
			cfg = bench.QuickLocalityAblation()
		}
		cfg.Obs = rec
		// Default to InfiniBand (the platform the dartmpi same-node
		// acceptance criterion is stated on); -platform selects another.
		name := plat
		if name == "" {
			name = platform.InfiniBand
		}
		p, err := platform.Lookup(name)
		if err != nil {
			return err
		}
		f, err := bench.AblationLocality(p, cfg)
		if err != nil {
			return err
		}
		if err := emit(f, jsonDir); err != nil {
			return err
		}
		if fig == "ablation-locality" {
			return nil
		}
	}
	// Scale is excluded from -fig all: its jobs are orders of magnitude
	// larger than every other sweep.
	if fig == "scale" {
		cfg := bench.DefaultScale()
		if quick {
			cfg = bench.QuickScale()
		}
		cfg.Obs = rec
		f, err := bench.Scale(cfg)
		if err != nil {
			return err
		}
		return emit(f, jsonDir)
	}
	if fig == "ablations" || fig == "all" {
		return ablations()
	}
	return nil
}

func ablations() error {
	ib := platform.Get(platform.InfiniBand)
	fmt.Println("# Ablation: read-modify-write latency (us/op), InfiniBand")
	rmw, err := bench.AblationRmw(ib, 16)
	if err != nil {
		return err
	}
	for _, k := range []string{"native-atomic", "mpi3-fetchop", "mpi2-mutex"} {
		fmt.Printf("%-16s %10.2f\n", k, rmw[k])
	}
	fmt.Println()

	fmt.Println("# Ablation: SectionVIII.A access modes (total us, 4 readers x 8 gets of 64KiB)")
	modes, err := bench.AblationAccessModes(ib, 4, 8, 1<<16)
	if err != nil {
		return err
	}
	for _, k := range []string{"conflicting", "read-only"} {
		fmt.Printf("%-16s %10.2f\n", k, modes[k])
	}
	fmt.Println()

	fmt.Println("# Ablation: strided method bandwidth (GB/s, 256 x 1KiB segments per platform)")
	for _, p := range platform.All() {
		sm, err := bench.AblationStridedMethods(p, 1024, 256, 3)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s", p.Name)
		for _, k := range []string{"Native", "Direct", "IOV-Direct", "IOV-Batched", "IOV-Consrv"} {
			fmt.Printf("  %s=%.3f", k, sm[k])
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Println("# Ablation: batched-method epoch size B (GB/s, 64 x 256B segments, InfiniBand)")
	bs, err := bench.AblationBatchSize(ib, 256, 64, []int{1, 4, 16, 64, 0}, 3)
	if err != nil {
		return err
	}
	for _, b := range []int{1, 4, 16, 64, 0} {
		label := fmt.Sprint(b)
		if b == 0 {
			label = "unlimited"
		}
		fmt.Printf("B=%-10s %8.3f\n", label, bs[b])
	}
	fmt.Println()

	fmt.Println("# Ablation: SectionV.F asynchronous progress (put latency us, 20us service delay when disabled)")
	ap, err := bench.AblationAsyncProgress(ib, 20000, 16)
	if err != nil {
		return err
	}
	for _, k := range []string{"async-progress", "no-async-progress"} {
		fmt.Printf("%-20s %10.2f\n", k, ap[k])
	}
	fmt.Println()

	fmt.Println("# Ablation: SectionVIII.B MPI-3 backend vs the paper's MPI-2 design (CCSD proxy, 8 procs, virtual ms)")
	m3, err := bench.AblationMPI3Backend(ib, 8)
	if err != nil {
		return err
	}
	for _, k := range []string{"mpi2-epochs", "mpi3-lockall"} {
		fmt.Printf("%-16s %10.3f\n", k, m3[k])
	}
	fmt.Println()

	fmt.Println("# Ablation: SectionIX two-sided data-server ARMCI vs one-sided stacks")
	fmt.Println("# (4 concurrent 1MiB getters: aggregate GB/s; CCSD proxy at 16 procs: virtual ms)")
	ds, err := bench.AblationDataServer(ib, 4, 3, 1<<20)
	if err != nil {
		return err
	}
	for _, k := range []string{"native", "armci-mpi", "armci-ds"} {
		fmt.Printf("%-12s bw=%-8.3f ccsd=%.3f\n", k, ds[k], ds["ccsd-"+k])
	}
	return nil
}
