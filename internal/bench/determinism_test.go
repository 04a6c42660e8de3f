package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// runObserved runs a small fixed bench configuration with a fresh
// trace-enabled recorder and returns the three machine-readable
// artifacts: the Chrome trace, the stats JSON, and the figure JSON.
func runObserved(t *testing.T) (trace, stats, figJSON []byte) {
	t.Helper()
	rec := obs.New(obs.Options{Trace: true})
	plat := harness.TestPlatform()
	fig := &Figure{Name: "det", Title: "determinism check", XLabel: "x", YLabel: "GB/s"}

	cfg := Fig3Config{MinExp: 3, MaxExp: 10, Iters: 2, Obs: rec}
	for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
		s, err := fig3Probe(plat, harness.ImplARMCIMPI, op, cfg).curve()
		if err != nil {
			t.Fatalf("fig3Probe(%s): %v", op, err)
		}
		fig.Series = append(fig.Series, s)
	}
	// A data-server run exercises the per-node server trace lane, and a
	// strided run exercises the packed-bytes datatype path.
	dsCfg := Fig3Config{MinExp: 4, MaxExp: 8, Iters: 1, Obs: rec}
	s, err := fig3Probe(plat, harness.ImplDataServer, OpGet, dsCfg).curve()
	if err != nil {
		t.Fatalf("fig3Probe(ds): %v", err)
	}
	fig.Series = append(fig.Series, s)
	direct := fig4Probes(plat, OpPut, 16, []int{1, 2, 4}, 1, rec)[1]
	st, err := direct.curve()
	if err != nil {
		t.Fatalf("fig4Probes(Direct): %v", err)
	}
	fig.Series = append(fig.Series, st)
	// The shm ablation covers the intra-node fast path (and its NoShm
	// baseline) in the same deterministic artifact set.
	shmCfg := ShmAblationConfig{MinExp: 3, MaxExp: 8, Iters: 1, SegBytes: 64, MaxSegs: 4, Obs: rec}
	shmFig, err := AblationShm(plat, shmCfg)
	if err != nil {
		t.Fatalf("AblationShm: %v", err)
	}
	fig.Series = append(fig.Series, shmFig.Series...)

	var tb, sb, fb bytes.Buffer
	if err := rec.WriteTrace(&tb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := rec.WriteStatsJSON(&sb); err != nil {
		t.Fatalf("WriteStatsJSON: %v", err)
	}
	if err := fig.WriteJSON(&fb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return tb.Bytes(), sb.Bytes(), fb.Bytes()
}

// TestObservedBenchIsByteDeterministic runs the same configuration
// twice with independent recorders and requires the trace, stats JSON,
// and figure JSON to be byte-identical — the property that makes the
// observability artifacts diffable across code changes.
func TestObservedBenchIsByteDeterministic(t *testing.T) {
	tr1, st1, fig1 := runObserved(t)
	tr2, st2, fig2 := runObserved(t)
	if !bytes.Equal(tr1, tr2) {
		t.Errorf("trace differs between identical runs (%d vs %d bytes)", len(tr1), len(tr2))
	}
	if !bytes.Equal(st1, st2) {
		t.Errorf("stats JSON differs between identical runs:\n%s\n---\n%s", st1, st2)
	}
	if !bytes.Equal(fig1, fig2) {
		t.Errorf("figure JSON differs between identical runs:\n%s\n---\n%s", fig1, fig2)
	}

	// The artifacts must also be valid JSON of the expected shape.
	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr1, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	// The sweep includes intra-node jobs: their shm fast-path spans must
	// show up in the trace.
	for _, span := range []string{"put.shm", "get.shm"} {
		if !bytes.Contains(tr1, []byte(span)) {
			t.Errorf("trace has no %q span; shm fast path not exercised", span)
		}
	}
	var stats map[string]interface{}
	if err := json.Unmarshal(st1, &stats); err != nil {
		t.Fatalf("stats is not valid JSON: %v", err)
	}
	var fig Figure
	if err := json.Unmarshal(fig1, &fig); err != nil {
		t.Fatalf("figure is not valid JSON: %v", err)
	}
	if len(fig.Series) != 17 {
		t.Errorf("figure has %d series, want 17 (5 base + 12 shm ablation)", len(fig.Series))
	}
}
