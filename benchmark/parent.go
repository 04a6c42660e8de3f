package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner is the parent process. It does no simulation itself and stays
// small: a child's ru_maxrss starts from the parent's at fork, so a
// heavy parent would hide a light child's peak.
type runner struct {
	self    string // this executable, re-run for every child
	out     string
	smoke   bool
	seed    int64
	seconds int
	tr      *tracer // nil = untraced
	root    int     // span of the whole run
	nchild  int
	calibNs float64 // the latest calibration; every measured section ends with one
	stdout  io.Writer
	stderr  io.Writer
}

// childRun is one finished child: what it printed plus what the parent
// saw of it from outside.
type childRun struct {
	childOut
	lifeS float64 // spawn to exit
	cpuS  float64 // user + system
	rssMB float64
}

// spawn runs one child to completion with a clean environment: its own
// empty HOME, TMPDIR and cache directory, GOMAXPROCS pinned to the CPU
// count, nothing inherited from earlier children.
func (r *runner) spawn(w *workload, parent int, spanName string, args ...string) (childRun, error) {
	var run childRun
	r.nchild++
	scratch := filepath.Join(r.out, fmt.Sprintf("child-%d-%d", os.Getpid(), r.nchild))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return run, err
	}
	defer os.RemoveAll(scratch)
	args = append(args, "-workload", w.name, "-seed", strconv.FormatInt(r.seed, 10))
	if r.smoke {
		args = append(args, "-smoke")
	}
	if r.tr != nil {
		args = append(args, "-spans")
	}
	cmd := exec.Command(r.self, args...)
	cmd.Env = append(childEnv(),
		"HOME="+scratch, "TMPDIR="+scratch, "XDG_CACHE_HOME="+scratch,
		"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = r.stderr
	sp := r.tr.begin(parent, spanName)
	t0 := time.Now()
	err := cmd.Run()
	run.lifeS = time.Since(t0).Seconds()
	r.tr.end(sp)
	if err != nil {
		return run, fmt.Errorf("%s child %v: %w", w.name, args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &run.childOut); err != nil {
		return run, fmt.Errorf("%s child %v: bad result: %w", w.name, args, err)
	}
	r.tr.adopt(sp, run.Spans)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// childEnv is the parent's environment minus what spawn sets and minus
// Go runtime tuning, so a child never inherits a GOGC or GODEBUG.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "HOME", "TMPDIR", "XDG_CACHE_HOME", "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOTRACEBACK":
			continue
		}
		env = append(env, kv)
	}
	return env
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// result is one workload's run: metrics in report order plus the
// oracle's checks.
type result struct {
	workload string
	traced   bool
	reps     int
	values   map[string]float64
	measured map[string]bool // layer metrics this workload measures
	checks   []check
	calibs   []float64 // host.calib_ns samples taken during the run
	rawWall  float64   // untraced: median wall seconds before normalisation
	rssMB    float64   // untraced: median child ru_maxrss
}

func (res *result) set(name string, v float64) {
	res.values[name] = v
	res.measured[name] = true
}

func (res *result) failed() int {
	n := 0
	for _, c := range res.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

func newResult(w *workload, traced bool) *result {
	return &result{workload: w.name, traced: traced, values: map[string]float64{}, measured: map[string]bool{}}
}

const setupProbes = 15

// calibRef is host.calib_ns on the quiet 2-core reference host. Host
// times are reported in reference-host seconds: measured seconds times
// calibRef over the calibration taken around the measurement. This
// host drifts by a third for minutes at a time (memory-side contention
// from neighbours: allocation and hand-off slow down, register
// arithmetic does not); dividing the drift out is what lets two sets
// of runs of one commit agree within the bounds.
const calibRef = 600e6

// calib runs the calibration loop in a child and returns the factor
// that turns host seconds measured since the previous calibration into
// reference-host seconds.
func (r *runner) calib(w *workload, parent int) (factor float64, err error) {
	run, err := r.spawn(w, parent, "calibration", "-child", "calib")
	before := r.calibNs
	r.calibNs = run.Layer["host.calib_ns"]
	return calibRef / ((before + r.calibNs) / 2), err
}

// untraced takes the end-to-end metrics of one set of runs.
func (r *runner) untraced(w *workload) (*result, error) {
	res, err := r.untracedSets(w, 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// untracedSets measures sets interleaved sets at once: repetitions one
// at a time, each a fresh child followed by a calibration (the previous
// one, or the fingerprint's, precedes it), dealt to the
// sets in turn, until each set has used the -seconds budget (the stock
// count when there is no budget); then setupProbes children per set
// that do everything a repetition does except call the generators.
// Interleaving makes the sets see the same phases of the host.
func (r *runner) untracedSets(w *workload, sets int) ([]*result, error) {
	wsp := r.tr.begin(r.root, "workload "+w.name)
	defer r.tr.end(wsp)

	type sample struct {
		childRun
		wall, cpu float64 // reference-host seconds
	}
	var reps []sample
	var calibs []float64
	start := time.Now()
	for {
		run, err := r.spawn(w, wsp, fmt.Sprintf("repetition %d", len(reps)+1), "-child", "rep")
		if err != nil {
			return nil, err
		}
		factor, err := r.calib(w, wsp)
		if err != nil {
			return nil, err
		}
		calibs = append(calibs, r.calibNs)
		reps = append(reps, sample{run, float64(run.WallNs) / 1e9 * factor, run.cpuS * factor})
		if r.smoke {
			break
		}
		if r.seconds == 0 {
			if len(reps) == sets*w.reps {
				break
			}
			continue
		}
		// Stop when another repetition would overshoot the budget by
		// more than it undershoots now.
		elapsed := time.Since(start).Seconds()
		if len(reps) >= sets && elapsed+elapsed/float64(len(reps))/2 >= float64(sets*r.seconds) {
			break
		}
	}
	var setup []float64
	for i := 0; i < sets*setupProbes; i++ {
		run, err := r.spawn(w, wsp, "set-up probe", "-child", "rep", "-dry")
		if err != nil {
			return nil, err
		}
		setup = append(setup, run.lifeS)
	}
	factor, err := r.calib(w, wsp)
	if err != nil {
		return nil, err
	}
	calibs = append(calibs, r.calibNs)

	var out []*result
	for set := 0; set < sets; set++ {
		res := newResult(w, false)
		res.calibs = calibs
		var mine []sample
		for i := set; i < len(reps); i += sets {
			mine = append(mine, reps[i])
		}
		var probes []float64
		for i := set; i < len(setup); i += sets {
			probes = append(probes, setup[i])
		}
		col := func(f func(sample) float64) float64 {
			var v []float64
			for _, c := range mine {
				v = append(v, f(c))
			}
			return median(v)
		}
		res.reps = len(mine)
		res.set("wall_s", col(func(c sample) float64 { return c.wall }))
		res.set("cpu_s", col(func(c sample) float64 { return c.cpu }))
		res.set("setup_s", median(probes)*factor)
		res.set("mallocs_k", col(func(c sample) float64 { return float64(c.Mallocs) / 1e3 }))
		res.set("alloc_mb", col(func(c sample) float64 { return float64(c.AllocBytes) / 1e6 }))
		res.set("virt_cost_geomean", col(func(c sample) float64 { return c.Geomean }))
		res.rawWall = col(func(c sample) float64 { return float64(c.WallNs) / 1e9 })
		res.rssMB = col(func(c sample) float64 { return c.rssMB })
		res.checks = append(res.checks, mine[0].Checks...)
		var digests []string
		for _, c := range mine {
			digests = append(digests, c.Digest)
		}
		res.checks = append(res.checks, sameDigest(digests)...)
		out = append(out, res)
	}
	return out, r.guard(w, wsp, out[0])
}

// sameDigest checks every repetition emitted byte-identical figure
// JSON. With a single repetition there is nothing to compare.
func sameDigest(digests []string) []check {
	if len(digests) < 2 {
		return nil
	}
	ok := true
	for _, d := range digests[1:] {
		ok = ok && d == digests[0]
	}
	return []check{checkf("repetitions_byte_identical", ok, "figure JSON digests differ across %d repetitions", len(digests))}
}

// guard regenerates the quick guarded artifacts against results/, at
// the stock seed only: a jittered model cannot match them.
func (r *runner) guard(w *workload, parent int, res *result) error {
	if r.seed != 0 || r.smoke {
		return nil
	}
	run, err := r.spawn(w, parent, "guarded artifacts", "-child", "guard")
	res.checks = append(res.checks, run.Checks...)
	return err
}

// traced takes the per-layer metrics. They are raw host readings, not
// reference-host seconds: shares and ratios within one run need no
// normalising, and host.calib_ns is reported beside them for the rest.
// baseWall is the workload's untraced wall seconds when the caller has
// just measured them; 0 makes traced run its own untraced twin first.
func (r *runner) traced(w *workload, baseWall float64) (*result, error) {
	res := newResult(w, true)
	wsp := r.tr.begin(r.root, "workload "+w.name+" (traced)")
	defer r.tr.end(wsp)

	before := r.calibNs
	var digests []string
	rssMB := 0.0 // the first repetition's
	rep := func(span string, args ...string) (childRun, error) {
		run, err := r.spawn(w, wsp, span, append([]string{"-child", "rep"}, args...)...)
		if err == nil {
			if len(digests) == 0 {
				rssMB = run.rssMB
			}
			digests = append(digests, run.Digest)
			res.checks = append(res.checks, run.Checks...)
		}
		return run, err
	}
	if baseWall == 0 {
		twin, err := rep("untraced twin")
		if err != nil {
			return nil, err
		}
		baseWall = float64(twin.WallNs) / 1e9
	}

	// Time busy: one repetition under the CPU profiler, rolled up by package.
	profPath := filepath.Join(r.out, "cpu-"+w.name+".pprof")
	profiled, err := rep("profiled repetition", "-cpuprofile", profPath)
	if err != nil {
		return nil, err
	}
	prof, err := readCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	busy := rollup(prof)
	sum := 0.0
	for _, l := range layers {
		res.set(l+".cpu_s", busy[l+".cpu_s"])
		res.set(l+".self_s", busy[l+".self_s"])
		sum += busy[l+".cpu_s"]
	}
	for _, g := range []string{"go.gc_s", "go.sched_s", "go.other_s"} {
		res.set(g, busy[g])
		sum += busy[g]
	}
	total := busy["profile.total_s"]
	res.checks = append(res.checks, checkf("profile_buckets_sum_to_total", total > 0 && sum > total*0.999999 && sum < total*1.000001,
		"buckets sum to %g s, profile total %g s", sum, total))
	res.set("go.gc_cycles", float64(profiled.GCCycles))
	res.set("go.gc_pause_ms", float64(profiled.GCPauseNs)/1e6)
	res.set("go.heap_sys_mb", float64(profiled.HeapSys)/1e6)
	res.set("host.peak_rss_mb", rssMB)
	res.set("host.trace_overhead", float64(profiled.WallNs)/1e9/baseWall)

	// Work done and the observability tax: recorder repetitions.
	if w.hasObs {
		for i, name := range []string{"obs.overhead.metrics", "obs.overhead.profile", "obs.overhead.critpath"} {
			level := strconv.Itoa(i + 1)
			run, err := rep("recorder repetition "+level, "-obs", level)
			if err != nil {
				return nil, err
			}
			res.set(name, float64(run.WallNs)/1e9/baseWall)
			for k, v := range run.Layer {
				res.set(k, v)
			}
		}
		for rate, of := range map[string][2]string{
			"sim.host_ns_per_park":      {"sim.cpu_s", "sim.parks"},
			"fabric.host_ns_per_msg":    {"fabric.cpu_s", "fabric.msgs"},
			"mpi.host_ns_per_epoch":     {"mpi.cpu_s", "mpi.epochs"},
			"armcimpi.host_ns_per_plan": {"armcimpi.cpu_s", "armcimpi.plan_exec"},
		} {
			if count := res.values[of[1]]; count > 0 {
				res.set(rate, res.values[of[0]]*1e9/count)
			}
		}
	}

	drv, err := r.spawn(w, wsp, "drivers", "-child", "drivers")
	if err != nil {
		return nil, err
	}
	for k, v := range drv.Layer {
		res.set(k, v)
	}
	if _, err := r.calib(w, wsp); err != nil {
		return nil, err
	}
	res.set("host.calib_ns", (before+r.calibNs)/2)

	res.reps = len(digests)
	// The recorder and the profiler only observe: every repetition of
	// the traced run must still emit the same figures.
	res.checks = append(res.checks, sameDigest(digests)...)
	return res, nil
}

// print writes every metric by name with its unit, then the failed
// checks, then the result as one JSON line. The suite's JSON lines also
// name the workload.
func (res *result) print(w io.Writer, suite bool) error {
	defs, kind := endToEnd, "untraced"
	if res.traced {
		defs, kind = layerMetrics, "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, %d repetitions)\n", res.workload, kind, res.reps)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, m := range defs {
		v := res.values[m.name]
		metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		if res.measured[m.name] {
			fmt.Fprintf(w, "%-38s %16.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "%-38s %16s %s\n", m.name, "n/a", m.unit)
		}
	}
	if !res.traced {
		fmt.Fprintf(w, "%-38s %16.6g s before normalising\n", "wall_raw_s", res.rawWall)
		fmt.Fprintf(w, "%-38s %16.6g MB (reported per layer, as host.peak_rss_mb)\n", "peak_rss_mb", res.rssMB)
		fmt.Fprintf(w, "%-38s %16.6g ns, median of %d (reference %.6g)\n", "host.calib_ns", median(res.calibs), len(res.calibs), calibRef)
	}
	fmt.Fprintf(w, "%-38s %16d of %d checks\n", "checks_failed", res.failed(), len(res.checks))
	fmt.Fprintf(w, "%-38s %16.2f\n", "load_after", loadAverage())
	fmt.Fprint(w, failures(res.checks))
	line := map[string]any{
		"correct":   res.failed() == 0,
		"attempted": len(res.checks),
		"failed":    res.failed(),
		"metrics":   metrics,
	}
	if suite {
		line["workload"], line["trace"] = res.workload, res.traced
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run stamps the host, makes the runs and writes the span trace.
func (r *runner) run(ws []*workload, aa, single, traced bool) (failed bool, err error) {
	if err := r.fingerprint(ws[0]); err != nil {
		return false, err
	}
	if aa {
		failed, err = r.runAA(ws)
	} else {
		failed, err = r.runSuite(ws, single, traced)
	}
	if err != nil || r.tr == nil {
		return failed, err
	}
	path := filepath.Join(r.out, "trace.json")
	if err := r.tr.writeChrome(path); err != nil {
		return failed, err
	}
	fmt.Fprintln(r.stderr, "benchmark: wrote", path)
	return failed, nil
}

// runSuite runs each workload untraced and, when asked, traced. single
// is the driver's form: one workload, one of the two runs, the result
// line last on standard output.
func (r *runner) runSuite(ws []*workload, single, traced bool) (failed bool, err error) {
	r.root = r.tr.begin(0, "run")
	defer r.tr.end(r.root)
	report := func(res *result, err error) error {
		if err != nil {
			return err
		}
		failed = failed || res.failed() > 0
		return res.print(r.stdout, !single)
	}
	for _, w := range ws {
		var base float64
		if !single || !traced {
			res, err := r.untraced(w)
			if err := report(res, err); err != nil {
				return false, err
			}
			base = res.rawWall
		}
		if traced {
			if err := report(r.traced(w, base)); err != nil {
				return false, err
			}
		}
	}
	return failed, nil
}

// runAA is the A/A acceptance check and the template for A/B pairs:
// two sets of the untraced workloads, interleaved, with each
// end-to-end metric's relative difference beside its bound.
func (r *runner) runAA(ws []*workload) (failed bool, err error) {
	fmt.Fprintf(r.stdout, "\n%-10s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "(B-A)/A", "bound")
	for _, w := range ws {
		sets, err := r.untracedSets(w, 2)
		if err != nil {
			return false, err
		}
		a, b := sets[0], sets[1]
		for _, m := range endToEnd {
			va, vb := a.values[m.name], b.values[m.name]
			diff := (vb - va) / va
			verdict := ""
			if diff > m.bound || -diff > m.bound {
				verdict = "  OUTSIDE BOUND"
				failed = true
			}
			fmt.Fprintf(r.stdout, "%-10s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, m.name, va, vb, 100*diff, 100*m.bound, verdict)
		}
		nfail := a.failed() + b.failed()
		fmt.Fprintf(r.stdout, "%-10s %-20s %14d %14d\n", w.name, "checks_failed", a.failed(), b.failed())
		fmt.Fprint(r.stdout, failures(a.checks), failures(b.checks))
		failed = failed || nfail > 0
	}
	return failed, nil
}

// fingerprint prints what every result is stamped with, so numbers
// from different hosts, or from a loaded host, can be told apart. The
// calibration loop runs in a child: its 128 MiB would otherwise become
// the floor of every later child's peak RSS.
func (r *runner) fingerprint(w *workload) error {
	load := loadAverage()
	if _, err := r.calib(w, 0); err != nil {
		return err
	}
	fmt.Fprintf(r.stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s load_before=%.2f host.calib_ns=%.0f\n",
		runtime.NumCPU(), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, load, r.calibNs)
	if load > float64(runtime.NumCPU()) {
		fmt.Fprintf(r.stderr, "benchmark: warning: load average %.2f exceeds %d CPUs; timings will be noisy\n", load, runtime.NumCPU())
	}
	return nil
}

// loadAverage is the one-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(b), " ")
	v, _ := strconv.ParseFloat(first, 64)
	return v
}
