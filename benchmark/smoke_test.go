package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The smoke parent and its children are this test binary re-run as the
// benchmark, so the test needs no separate build.
const asMain = "REPRO_BENCHMARK_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// declared is BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// and holds the output, the metric tables and BENCHMARK.json together.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	// The declaration and the program's tables say the same thing.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, at most 16 and 128 allowed", len(decl.EndToEnd), len(decl.PerLayer))
	}
	sameMetrics := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range decl {
			m := defs[i]
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s #%d: declared %s [%s] %s, program has %s [%s] %s", kind, i, d.Name, d.Unit, d.Better, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != m.bound):
				t.Errorf("%s %s: declared bound %v, program has %v", kind, d.Name, d.Bound, m.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	sameMetrics("end_to_end", decl.EndToEnd, endToEnd, true)
	sameMetrics("per_layer", decl.PerLayer, layerMetrics, false)
	hasSetup := false
	for _, d := range decl.EndToEnd {
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, dw := range decl.Workloads {
		if w := findWorkload(dw.Name); w == nil {
			t.Errorf("declared workload %q is not in the program", dw.Name)
		} else if w.why != dw.Why {
			t.Errorf("workload %s: declared why differs from the program's", dw.Name)
		}
	}

	out := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-smoke", "-out", out)
	cmd.Env = append(os.Environ(), asMain+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchmark -smoke: %v\n%s", err, stdout)
	}

	// Every declared (metric, workload) pair is in the output with its unit.
	type resultLine struct {
		Workload  string `json:"workload"`
		Trace     bool   `json:"trace"`
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	results := map[string]resultLine{}
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("{")) {
			continue
		}
		var r resultLine
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		key := r.Workload + "/untraced"
		if r.Trace {
			key = r.Workload + "/traced"
		}
		results[key] = r
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", key, r.Correct, r.Attempted, r.Failed)
		}
	}
	for _, w := range workloads { // the declared ones and the suite-only scale
		for key, want := range map[string][]metricDef{w.name + "/untraced": endToEnd, w.name + "/traced": layerMetrics} {
			r, ok := results[key]
			if !ok {
				t.Errorf("no result for %s", key)
				continue
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, want %d", key, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := r.Metrics[m.name]; !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s: metric %s [%s] missing or mis-united: %+v", key, m.name, m.unit, got)
				}
			}
		}
	}

	// The spans of the traced run nest: a child lies inside its parent,
	// and, the loop being closed, siblings never overlap.
	raw, err = os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	ev := trace.TraceEvents
	if len(ev) < 4*len(workloads) {
		t.Fatalf("only %d spans", len(ev))
	}
	lastEnd := map[int]float64{} // per parent: end of its latest child
	const slack = 1.0            // µs: child clocks are read in another process
	for i, e := range ev {
		if e.Args.ID != i+1 || e.Args.Parent >= e.Args.ID || e.Dur < 0 {
			t.Fatalf("span %d %q: id %d parent %d dur %g", i, e.Name, e.Args.ID, e.Args.Parent, e.Dur)
		}
		if p := e.Args.Parent; p > 0 {
			par := ev[p-1]
			if e.Ts < par.Ts-slack || e.Ts+e.Dur > par.Ts+par.Dur+slack {
				t.Errorf("span %q [%g, %g] leaves its parent %q [%g, %g]", e.Name, e.Ts, e.Ts+e.Dur, par.Name, par.Ts, par.Ts+par.Dur)
			}
		}
		if e.Ts < lastEnd[e.Args.Parent]-slack {
			t.Errorf("span %q starts at %g, before its sibling ended at %g", e.Name, e.Ts, lastEnd[e.Args.Parent])
		}
		lastEnd[e.Args.Parent] = e.Ts + e.Dur
	}
}
