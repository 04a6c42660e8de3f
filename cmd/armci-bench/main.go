// Command armci-bench regenerates the paper's evaluation on the
// simulated platforms: Table II, Figures 3-6, and the ablations.
//
// Usage:
//
//	armci-bench -fig 3 [-platform bgp|ib|xt5|xe6] [-quick]
//	armci-bench -fig 4 [-platform ...] [-op get|put|acc] [-quick]
//	armci-bench -fig 5 [-quick]
//	armci-bench -fig 6 [-platform ...] [-quick]
//	armci-bench -fig ablation-shm|ablation-nbfanout|ablation-locality [-platform ...] [-quick]
//	armci-bench -fig ablations
//	armci-bench -fig table2
//	armci-bench -fig scale [-quick]
//	armci-bench -fig all
//	armci-bench -fig results -json DIR
//
// The figures table below names every figure once. With no -platform,
// figures 3, 4 and 6 run on all four platforms and the three ablation
// figures on InfiniBand, where their acceptance criteria are stated; a
// combined -fig figN-plat spelling (e.g. -fig fig3-ib) selects one
// platform, as the BENCH_<name>.json artifact names do. Figure 6 runs
// its (T) phase on InfiniBand and the Cray XE6, as the paper shows it.
// Table II is followed by the calibrated model parameters. -fig all
// runs every figure but scale (4096-16384 simulated ranks), whose jobs
// dwarf every other sweep. -fig results rewrites every file under
// results/ into DIR, each from the run the results table names for it;
// with -json results, a clean git status is the regeneration check.
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
// Observability (only on the figures that record: 3, 4, 5,
// ablation-shm, ablation-locality, scale):
//
//	-stats         print per-rank metrics (lock waits, bytes moved
//	               contiguous vs packed, epoch flushes, ...) after the runs
//	-trace f.json  write a Chrome trace_event file (https://ui.perfetto.dev)
//	-profile       print an mpiP-style report of each operation's virtual
//	               time by phase (lock wait, pack, shm copy, wire, target)
//	-critpath      print the exact critical path of every job: the
//	               operations, wait chains and ranks its virtual time
//	               decomposes into, beside the profiler shares
//	-json dir      also write each figure as dir/BENCH_<name>.json, and
//	               -profile/-critpath as dir/PROF_<fig>.json/CRIT_<fig>.json
//	               (not with table2, which has no JSON form)
//
// All output is in deterministic virtual time: repeat runs of the same
// configuration produce byte-identical stats, trace, and JSON files.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/platform"
)

// args is one armci-bench command line, less the runtime-tuning flags,
// which installTweak applies once for the whole process.
type args struct {
	fig, plat, op                   string
	quick, stats, profile, critpath bool
	trace, jsonDir                  string
}

func main() {
	var a args
	flag.StringVar(&a.fig, "fig", "3", "what to regenerate: "+strings.Join(figNames(func(*figure) bool { return true }), ", ")+", all, or results (every file under results/, into the -json directory)")
	flag.StringVar(&a.plat, "platform", "", "platform (bgp, ib, xt5, xe6); empty = the figure's default")
	flag.StringVar(&a.op, "op", "", "operation filter for fig 4 (get, put, acc); empty = all")
	flag.BoolVar(&a.quick, "quick", false, "reduced sweeps")
	flag.BoolVar(&a.stats, "stats", false, "print per-rank observability metrics after the figure sweeps")
	flag.StringVar(&a.trace, "trace", "", "write a Chrome trace_event JSON file covering the figure sweeps")
	flag.BoolVar(&a.profile, "profile", false, "attribute per-operation virtual time to phases and print an mpiP-style report")
	flag.BoolVar(&a.critpath, "critpath", false, "record dependence chains and print the exact critical-path report (with -json, also CRIT_<fig>.json)")
	flag.StringVar(&a.jsonDir, "json", "", "also write each figure as BENCH_<name>.json into this directory")
	batch := flag.Int("batch", -1, "batched-method operations per epoch (0 = unlimited; -1 = default)")
	stridedMethod := flag.String("strided-method", "", "strided transfer method (conservative, batched, iov-direct, direct, auto)")
	iovMethod := flag.String("iov-method", "", "I/O vector transfer method (conservative, batched, iov-direct, auto)")
	runtimeName := flag.String("runtime", "",
		fmt.Sprintf("extra ARMCI runtime series for the Figure 3 comparison (%s)",
			strings.Join(harness.ImplNames(), ", ")))
	flag.Parse()

	err := installTweak(*batch, *stridedMethod, *iovMethod)
	if err == nil && *runtimeName != "" {
		var impl harness.Impl
		impl, err = harness.ParseImpl(*runtimeName)
		bench.ExtraImpls = append(bench.ExtraImpls, impl)
	}
	if err == nil {
		err = run(os.Stdout, a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "armci-bench:", err)
		os.Exit(1)
	}
}

// figure is one -fig name. The valid names, the figures that record,
// the figures that write JSON and -fig all are all read off the figures
// table; nothing else lists them.
type figure struct {
	name string
	// plats is where the figure runs with no -platform: "all" four
	// platforms, one named platform, or "" for once with no platform
	// (gen then gets nil and -platform is ignored).
	plats   string
	records bool // its jobs take the recorder (-stats/-profile/-critpath/-trace)
	inAll   bool // -fig all runs it
	// Exactly one of gen and text is set. gen returns one platform's
	// panels, which print as columns and, with -json, are written as
	// BENCH_<name>.json; text prints a table with no JSON form.
	gen  func(p *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error)
	text func(w io.Writer) error
}

var figures = []figure{
	{name: "table2", inAll: true, text: table2},
	{name: "3", plats: "all", records: true, inAll: true,
		gen: func(p *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultFig3, bench.QuickFig3)
			cfg.Obs = rec
			return one(bench.Fig3(p, cfg))
		}},
	{name: "4", plats: "all", records: true, inAll: true,
		gen: func(p *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultFig4, bench.QuickFig4)
			cfg.Obs = rec
			ops := []bench.ContigOp{bench.OpGet, bench.OpAcc, bench.OpPut}
			if a.op != "" {
				ops = []bench.ContigOp{bench.ContigOp(a.op)}
			}
			var figs []*bench.Figure
			for _, seg := range cfg.SegSizes {
				for _, o := range ops {
					f, err := bench.Fig4(p, o, seg, cfg)
					if err != nil {
						return nil, err
					}
					figs = append(figs, f)
				}
			}
			return figs, nil
		}},
	{name: "5", records: true, inAll: true,
		gen: func(_ *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultFig5, bench.QuickFig5)
			cfg.Obs = rec
			return one(bench.Fig5(cfg))
		}},
	{name: "6", plats: "all", inAll: true,
		gen: func(p *platform.Platform, a args, _ *obs.Recorder) ([]*bench.Figure, error) {
			withT := p.Name == platform.InfiniBand || p.Name == platform.CrayXE6
			return one(bench.Fig6(p, pick(a.quick, bench.DefaultFig6, bench.QuickFig6), withT))
		}},
	{name: "ablation-shm", plats: platform.InfiniBand, records: true, inAll: true,
		gen: func(p *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultShmAblation, bench.QuickShmAblation)
			cfg.Obs = rec
			return one(bench.AblationShm(p, cfg))
		}},
	{name: "ablation-nbfanout", plats: platform.InfiniBand, inAll: true,
		gen: func(p *platform.Platform, a args, _ *obs.Recorder) ([]*bench.Figure, error) {
			return one(bench.AblationNbFanout(p, pick(a.quick, bench.DefaultNbFanout, bench.QuickNbFanout)))
		}},
	{name: "ablation-locality", plats: platform.InfiniBand, records: true, inAll: true,
		gen: func(p *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultLocalityAblation, bench.QuickLocalityAblation)
			cfg.Obs = rec
			return one(bench.AblationLocality(p, cfg))
		}},
	{name: "ablations", inAll: true,
		gen: func(*platform.Platform, args, *obs.Recorder) ([]*bench.Figure, error) {
			return bench.Ablations()
		}},
	{name: "scale", records: true,
		gen: func(_ *platform.Platform, a args, rec *obs.Recorder) ([]*bench.Figure, error) {
			cfg := pick(a.quick, bench.DefaultScale, bench.QuickScale)
			cfg.Obs = rec
			return one(bench.Scale(cfg))
		}},
}

// results names every file under results/ and the run that rebuilds
// it. A .txt file is what its run prints; a .json file is what its run
// writes with -json. -fig results -json DIR writes exactly this set.
var results = []struct {
	file string
	run  args
}{
	{"table2.txt", args{fig: "table2"}},
	{"fig3.txt", args{fig: "3"}},
	{"fig4.txt", args{fig: "4"}},
	{"fig5.txt", args{fig: "5"}},
	{"fig6.txt", args{fig: "6"}},
	{"ablations.txt", args{fig: "ablations"}},
	{"BENCH_fig3-ib.json", args{fig: "fig3-ib", quick: true}},
	{"PROF_fig3-ib.json", args{fig: "fig3-ib", quick: true, profile: true}},
	{"CRIT_fig3-ib.json", args{fig: "fig3-ib", quick: true, critpath: true}},
	{"BENCH_ablation-shm.json", args{fig: "ablation-shm", quick: true}},
	{"BENCH_ablation-nbfanout.json", args{fig: "ablation-nbfanout", quick: true}},
	{"BENCH_ablation-locality.json", args{fig: "ablation-locality", quick: true}},
	{"BENCH_scale.json", args{fig: "scale", quick: true}},
}

func pick[C any](quick bool, full, reduced func() C) C {
	if quick {
		return reduced()
	}
	return full()
}

func one(f *bench.Figure, err error) ([]*bench.Figure, error) {
	return []*bench.Figure{f}, err
}

// figNames lists, in table order, the figures for which has is true.
func figNames(has func(*figure) bool) []string {
	var names []string
	for i := range figures {
		if has(&figures[i]) {
			names = append(names, figures[i].name)
		}
	}
	return names
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

// checkArgs rejects a bad command line before anything runs. It
// resolves the combined figN-plat spelling in place and returns the
// figures to run (none for -fig results). A flag whose output the
// figure cannot produce is an error too: the report or directory would
// come out empty, and the run would still exit 0.
func checkArgs(a *args) ([]*figure, error) {
	if rest, ok := strings.CutPrefix(a.fig, "fig"); ok {
		if i := strings.IndexByte(rest, '-'); i > 0 {
			if a.plat != "" && a.plat != rest[i+1:] {
				return nil, fmt.Errorf("-fig %s conflicts with -platform %s", a.fig, a.plat)
			}
			a.fig, a.plat = rest[:i], rest[i+1:]
		}
	}
	var figs []*figure
	for i := range figures {
		if f := &figures[i]; f.name == a.fig || a.fig == "all" && f.inAll {
			figs = append(figs, f)
		}
	}
	if figs == nil && a.fig != "results" {
		return nil, fmt.Errorf("unknown -fig %q; valid: %s, all, results", a.fig,
			strings.Join(figNames(func(*figure) bool { return true }), ", "))
	}
	if a.plat != "" {
		if _, err := platform.Lookup(a.plat); err != nil {
			return nil, err
		}
	}
	// need fails when flags are set on a figure that lacks what they
	// need, naming the figures that have it; -fig all always passes.
	need := func(flags []string, lacks string, has func(*figure) bool) error {
		if len(flags) == 0 || a.fig == "all" || len(figs) == 1 && has(figs[0]) {
			return nil
		}
		return fmt.Errorf("%s: -fig %s %s; the figures that do are %s",
			strings.Join(flags, "/"), a.fig, lacks, strings.Join(figNames(has), ", "))
	}
	var obsFlags []string
	for i, set := range []bool{a.stats, a.profile, a.critpath, a.trace != ""} {
		if set {
			obsFlags = append(obsFlags, []string{"-stats", "-profile", "-critpath", "-trace"}[i])
		}
	}
	if err := need(obsFlags, "records nothing", func(f *figure) bool { return f.records }); err != nil {
		return nil, err
	}
	if a.fig == "results" {
		if a.jsonDir == "" || a.plat != "" || a.op != "" || a.quick {
			return nil, errors.New("-fig results takes -json DIR and none of -platform, -op, -quick")
		}
		return nil, nil
	}
	if a.jsonDir != "" {
		return figs, need([]string{"-json"}, "writes no JSON", func(f *figure) bool { return f.gen != nil })
	}
	return figs, nil
}

func run(w io.Writer, a args) error {
	stem := a.fig // PROF_/CRIT_<stem>.json: the -fig spelling as given
	figs, err := checkArgs(&a)
	if err != nil {
		return err
	}
	if a.fig == "results" {
		return writeResults(a.jsonDir)
	}
	var rec *obs.Recorder
	if a.stats || a.profile || a.critpath || a.trace != "" {
		rec = obs.New(obs.Options{Trace: a.trace != "", Profile: a.profile, CritPath: a.critpath})
	}
	for _, f := range figs {
		if err := f.run(w, a, rec); err != nil {
			return err
		}
	}
	if a.trace != "" {
		if err := writeFile(a.trace, rec.WriteTrace); err != nil {
			return err
		}
	}
	if a.stats {
		if err := rec.Stats().WriteText(w); err != nil {
			return err
		}
	}
	if a.profile {
		if err := report(w, a.jsonDir, "PROF_"+stem, rec.Prof().Report()); err != nil {
			return err
		}
	}
	if a.critpath {
		return report(w, a.jsonDir, "CRIT_"+stem, rec.Crit().Report())
	}
	return nil
}

// run prints the figure on each of its platforms and, with -json,
// writes each panel as BENCH_<name>.json.
func (f *figure) run(w io.Writer, a args, rec *obs.Recorder) error {
	if f.text != nil {
		return f.text(w)
	}
	if !f.records {
		rec = nil
	}
	ps := []*platform.Platform{nil}
	switch {
	case f.plats == "":
	case a.plat != "":
		ps[0] = platform.Get(a.plat)
	case f.plats == "all":
		ps = platform.All()
	default:
		ps[0] = platform.Get(f.plats)
	}
	for _, p := range ps {
		panels, err := f.gen(p, a, rec)
		if err != nil {
			return err
		}
		for _, fig := range panels {
			if err := fig.WriteText(w); err != nil {
				return err
			}
			if a.jsonDir != "" {
				if err := writeFile(filepath.Join(a.jsonDir, "BENCH_"+fig.Name+".json"), fig.WriteJSON); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// report prints a profile or critical-path document and, when a JSON
// directory was requested, also writes it as dir/<stem>.json.
func report(w io.Writer, dir, stem string, doc interface{ WriteText(io.Writer) error }) error {
	if err := doc.WriteText(w); err != nil || dir == "" {
		return err
	}
	return writeFile(filepath.Join(dir, stem+".json"), func(w io.Writer) error { return profile.WriteJSON(w, doc) })
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "armci-bench: wrote", path)
	return nil
}

// writeResults rebuilds every file of the results table into dir. Each
// file is removed before its run, so a run that stops writing its file
// shows as a deletion in git status, never as a stale pass.
func writeResults(dir string) error {
	for _, r := range results {
		path := filepath.Join(dir, r.file)
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		var err error
		if a := r.run; strings.HasSuffix(r.file, ".txt") {
			err = writeFile(path, func(w io.Writer) error { return run(w, a) })
		} else {
			a.jsonDir = dir
			err = run(io.Discard, a)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", r.file, err)
		}
	}
	return nil
}

// table2 prints the paper's Table II and the calibrated model
// parameters behind each simulated machine, rendered into one buffer and
// written once.
func table2(w io.Writer) error {
	var b bytes.Buffer
	bench.Table2(&b)
	fmt.Fprintln(&b, "# Calibrated model parameters")
	for _, p := range platform.All() {
		fmt.Fprintf(&b, "%s (%s)\n", p.Name, p.System)
		fmt.Fprintf(&b, "  link: %.2f GB/s, latency %.1f us, per-msg overhead %.0f ns\n",
			p.Bandwidth/1e9, p.LatencyNs/1e3, p.MsgOverhead)
		fmt.Fprintf(&b, "  cpu: copy %.2f GB/s, %.1f Gflop/s per core, %d cores/node\n",
			p.CopyRate/1e9, p.Flops/1e9, p.CoresPerNode)
		if p.PinPageNs > 0 {
			fmt.Fprintf(&b, "  registration: %.0f us/page, bounce threshold %d B\n",
				p.PinPageNs/1e3, p.BounceThreshold)
		}
		fmt.Fprintf(&b, "  native ARMCI: %.0f%% of link bw, %.0f ns/op",
			p.Native.BandwidthFrac*100, p.Native.OpOverheadNs)
		if p.Native.ScalePenaltyNs > 0 {
			fmt.Fprintf(&b, ", %.1f us/op scale penalty per log2(P)", p.Native.ScalePenaltyNs/1e3)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "  MPI RMA: %.0f%% of link bw, %.0f ns/op", p.MPI.BandwidthFrac*100, p.MPI.OpOverheadNs)
		if p.MPI.LargeFrac > 0 {
			fmt.Fprintf(&b, ", %.0f%% beyond %d B", p.MPI.LargeFrac*100, p.MPI.LargeAt)
		}
		if p.MPI.QueueSlowdownNs > 0 {
			fmt.Fprintf(&b, ", epoch-queue slowdown %.0f ns/op beyond %d ops",
				p.MPI.QueueSlowdownNs, p.MPI.QueueThreshold)
		}
		fmt.Fprintln(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}
