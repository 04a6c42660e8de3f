package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
)

// critWorkload extends the mixed profiler workload with a contended
// mutex section, so the analyzed dependence graph includes lock-queue
// grant chains (the hopGrant edge kind) on every runtime.
func critWorkload(t *testing.T, rt armci.Runtime) {
	profWorkload(t, rt)
	mtx, err := rt.CreateMutexes(1)
	if err != nil {
		t.Errorf("CreateMutexes: %v", err)
		return
	}
	// All ranks contend for mutex (0, 0), so every unlock forwards the
	// grant to a queued waiter.
	mtx.Lock(0, 0)
	rt.Proc().Elapse(500)
	mtx.Unlock(0, 0)
	rt.Barrier()
	if err := mtx.Destroy(); err != nil {
		t.Errorf("Destroy: %v", err)
	}
}

// critRun executes critWorkload under impl/opt with a critical-path
// recorder attached, returning the recorder and the engine's final
// virtual time.
func critRun(t *testing.T, impl harness.Impl, opt armcimpi.Options) (*obs.Recorder, sim.Time) {
	t.Helper()
	rec := obs.New(obs.Options{CritPath: true})
	j, err := harness.RunObs(harness.TestPlatform(), 4, impl, opt, rec, func(j *harness.Job, p *sim.Proc) error {
		critWorkload(t, j.Runtime(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, j.Eng.Stats().FinalTime
}

// TestCritPathInvariantMatrix pins the analyzer's central invariant on
// every runtime configuration: the critical-path segment durations sum
// exactly to the job makespan, and the makespan is exactly the engine's
// end-to-end virtual time. The numbers themselves are held to
// testdata/critpath_matrix.golden, which has one row per configuration
// per scheduler mode of the commit that recorded it (config/mode; the
// modes agreed, which is what let them collapse into one engine). Each
// row is a subtest; each configuration runs once.
func TestCritPathInvariantMatrix(t *testing.T) {
	const path = "testdata/critpath_matrix.golden"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, cfg := range profConfigs() {
		rec, final := critRun(t, cfg.impl, cfg.opt)
		jobs := rec.Crit().Report().Jobs
		if len(jobs) != 1 {
			t.Fatalf("%s: expected 1 analyzed job, got %d", cfg.name, len(jobs))
		}
		jb := jobs[0]
		if jb.Makespan != final {
			t.Errorf("%s: makespan %d ns != engine final time %d ns", cfg.name, jb.Makespan, final)
		}
		if jb.PathNs != jb.Makespan {
			t.Errorf("%s: critical path sum %d ns != makespan %d ns (off by %d)",
				cfg.name, jb.PathNs, jb.Makespan, jb.PathNs-jb.Makespan)
		}
		if jb.Segments == 0 {
			t.Errorf("%s: no critical-path segments recorded", cfg.name)
		}
		got[cfg.name] = fmt.Sprintf("makespan=%d path=%d final=%d segments=%d", jb.Makespan, jb.PathNs, final, jb.Segments)
	}
	var rewritten bytes.Buffer
	for _, row := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		name, want, _ := strings.Cut(row, " ")
		cfg, _, _ := strings.Cut(name, "/")
		fmt.Fprintf(&rewritten, "%s %s\n", name, got[cfg])
		t.Run(name, func(t *testing.T) {
			if got[cfg] != want && !*update {
				t.Errorf("got %s, recorded %s", got[cfg], want)
			}
		})
	}
	if *update {
		if err := os.WriteFile(path, rewritten.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCritPathSchedulerModesAgree requires the analyzed critical path —
// not just its sum — to be the one every scheduler mode of the
// recording commit produced: same report bytes, same JSON bytes. The
// dependence graph and its longest path must not depend on how the
// host drives the virtual schedule.
func TestCritPathSchedulerModesAgree(t *testing.T) {
	rec, _ := critRun(t, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	var rb, jb bytes.Buffer
	if err := rec.Crit().Report().WriteText(&rb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := rec.Crit().WriteJSON(&jb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	checkGolden(t, "testdata/critpath_report.golden", rb.Bytes())
	checkGolden(t, "testdata/critpath.golden.json", jb.Bytes())
}

// TestCritPathReportDeterministic requires the text report and JSON
// export to be byte-identical across two independent runs — the
// property the CRIT_* CI artifact guard rests on — and the JSON to be
// newline-terminated.
func TestCritPathReportDeterministic(t *testing.T) {
	build := func() (report, js []byte) {
		rec, _ := critRun(t, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
		var rb, jb bytes.Buffer
		if err := rec.Crit().Report().WriteText(&rb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := rec.Crit().WriteJSON(&jb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return rb.Bytes(), jb.Bytes()
	}
	r1, j1 := build()
	r2, j2 := build()
	if !bytes.Equal(r1, r2) {
		t.Errorf("text report differs between identical runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("critical-path JSON differs between identical runs:\n%s\n---\n%s", j1, j2)
	}
	if len(j1) == 0 || j1[len(j1)-1] != '\n' {
		t.Error("critical-path JSON missing trailing newline")
	}
}

// TestCritPathDoesNotPerturbFigures runs a figure sweep with and
// without the critical-path recorder attached and requires
// byte-identical figure JSON: recording dependence edges is pure
// observation and must not move any virtual timestamp.
func TestCritPathDoesNotPerturbFigures(t *testing.T) {
	build := func(rec *obs.Recorder) []byte {
		cfg := Fig3Config{MinExp: 3, MaxExp: 10, Iters: 2, Obs: rec}
		fig := &Figure{Name: "crit-perturb", Title: "check", XLabel: "x", YLabel: "GB/s"}
		for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
			s, err := fig3Probe(harness.TestPlatform(), harness.ImplARMCIMPI, op, cfg).curve()
			if err != nil {
				t.Fatalf("fig3Probe(%s): %v", op, err)
			}
			fig.Series = append(fig.Series, s)
		}
		var b bytes.Buffer
		if err := fig.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain := build(nil)
	observed := build(obs.New(obs.Options{CritPath: true}))
	if !bytes.Equal(plain, observed) {
		t.Errorf("figure JSON changed when the critical-path recorder was attached:\n%s\n---\n%s", plain, observed)
	}
}
