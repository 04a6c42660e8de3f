package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

// testMethod stands in for the enums hook sites pass as fmt.Stringer
// (a transfer method, a reduction).
type testMethod int

func (testMethod) String() string { return "direct" }

// everyEvent emits each event of the vocabulary once, as rank 1 of a
// two-node job talking to rank 2.
func everyEvent(r *Recorder) {
	r.OpBegin(1, profile.OpPut)
	r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 1, From: 0, To: 10, Peer: 2})
	r.Waited(Wait{Kind: WaitPack, Rank: 1, From: 10, To: 12, N: 64})
	r.Xfer(Xfer{Src: 1, Dst: 2, Bytes: 64, NicS: 0, NicD: 1, Now: 12, Base: 13, Start: 14, Occupy: 5, Arrive: 21})
	r.Wire(1, 1, 2, profile.MsgPut, profile.RouteRMA, 64)
	r.Booked(Booking{Rank: 1, At: 21, Start: 22, Done: 25})
	r.Booked(Booking{Rank: 1, At: 21, Start: 25, Done: 27, Lane: LaneServer(1), Class: profile.MsgPut, Bytes: 64})
	r.Sent(1, 2, profile.MsgAmo, profile.RouteRMA, 8)
	r.Landed(1, 2, profile.MsgPut, profile.RouteRMA, 64)
	r.RMA(RMA{Kind: RMAAcc, Red: testMethod(0), Origin: 1, Target: 2, Bytes: 64, T0: 10, Done: 27, AgentLane: LaneServer(1), AgentAt: 22})
	r.GetDone(1, 2, 64, 10, 21, 23)
	r.Waited(Wait{Kind: WaitEpoch, Excl: true, Rank: 1, From: 27, To: 30, Open: 10, Peer: 2, N: 1})
	r.OpEnd(1)
	r.OpDone(1, profile.OpPut, 0, 30, 2, 64, nil)
	r.OpDone(1, profile.OpPutS, 0, 30, 2, 16, testMethod(0))
	r.Alloc(1, 0, 5, 4096, 7)
	r.Routed(1, TierRMA, 64)
	r.Count(1, CPlanExec, 1)
	edge := r.MsgHop(1, 12, 14, 21, 0, 1)
	prev := r.Enter(2, edge)
	r.WakeAmbient(2)
	r.Leave(2, prev)
	r.WakeCause(2, edge)
	r.WakeGrant(2, 1, 30)
	r.RankParked(2, "recv", 1)
	r.RankResumed(2, 22)
	r.RankFinished(2, 40)
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.BeginJob("x", &fakeClock{}, 4)
	everyEvent(r)
	if r.Prof() != nil || r.Crit() != nil {
		t.Fatal("nil recorder hands out instruments")
	}
	if s := r.Stats(); len(s.Counters)+len(s.TimesNs)+len(s.Gauges)+len(s.Histograms)+len(s.LinkBusyNs) != 0 {
		t.Fatalf("nil recorder's stats are not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil trace output: %q", buf.String())
	}
}

func TestMetricsAccumulate(t *testing.T) {
	r := New(Options{})
	r.BeginJob("job", &fakeClock{}, 2)
	r.RMA(RMA{Kind: RMAPut, Origin: 0, Target: 1})
	r.RMA(RMA{Kind: RMAPut, Origin: 0, Target: 1})
	r.Count(1, COpsPut, 3)
	r.Waited(Wait{Kind: WaitLock, Rank: 1, From: 100, To: 2600, Peer: 0})
	r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 0, From: 0, To: 1023, Peer: 1})
	r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 0, From: 0, To: 1024, Peer: 1})
	r.Waited(Wait{Kind: WaitMutex, Rank: 0, Peer: 1, N: 2})
	r.Waited(Wait{Kind: WaitMutex, Rank: 0, Peer: 1, N: 1})

	m := r.m
	if got := m.counters[COpsPut]; got[0] != 2 || got[1] != 3 {
		t.Errorf("counter = %v", got)
	}
	if got := m.times[TLockWaitShared]; got[1] != 2500 {
		t.Errorf("time = %v", got)
	}
	if got := m.gauges[GMutexQueue]; got[0] != 2 {
		t.Errorf("gauge = %v", got)
	}
	if got := m.counters[CEpochs]; got[0] != 2 || got[1] != 1 {
		t.Errorf("a granted lock opens an epoch: epochs = %v", got)
	}
	h := m.hists[HLockWait][0]
	if h.Count != 2 || h.SumNs != 2047 {
		t.Errorf("hist = %+v", h)
	}
	// 1023 has bit length 10, 1024 has bit length 11.
	if h.Buckets[10] != 1 || h.Buckets[11] != 1 {
		t.Errorf("hist buckets = %v", h.Buckets)
	}
}

func TestTraceExportIsValidJSONAndDeterministic(t *testing.T) {
	build := func() []byte {
		r := New(Options{Trace: true})
		c := &fakeClock{}
		r.BeginJob("job-a", c, 2)
		r.RMA(RMA{Kind: RMAPut, Origin: 0, Target: 1, Bytes: 64, T0: 100, Done: 1600})
		r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 1, From: 0, To: 2500, Peer: 0})
		r.Waited(Wait{Kind: WaitFlush, Rank: 0, From: 3000, To: 3000, Peer: -1})
		r.RankParked(1, "mpi.WinLock", 100)
		r.RankResumed(1, 900)
		r.BeginJob("job-b", c, 1)
		r.GetDone(0, 0, 8, 0, 333, 333)
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("trace export is not byte-deterministic")
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a)
	}
	// 5 metadata (job-a proc + name and sort_index per rank) + 3
	// spans + 1 park span + 3 metadata (job-b) + 1 span.
	if len(doc.TraceEvents) != 13 {
		t.Fatalf("event count = %d", len(doc.TraceEvents))
	}
	// Spot-check the chrome fields of the first real span.
	var put map[string]interface{}
	for _, e := range doc.TraceEvents {
		if e["name"] == "put" {
			put = e
		}
	}
	if put == nil {
		t.Fatal("no put span")
	}
	if put["ph"] != "X" || put["ts"] != 0.1 || put["dur"] != 1.5 {
		t.Errorf("put span fields = %v", put)
	}
	if args := put["args"].(map[string]interface{}); args["bytes"] != 64.0 {
		t.Errorf("args = %v", args)
	}
}

func TestParkAccounting(t *testing.T) {
	r := New(Options{})
	r.BeginJob("job", &fakeClock{}, 2)
	r.RankParked(0, "mpi.WinLock", 100)
	r.RankResumed(0, 700)
	r.RankParked(0, "elapse", 700) // pure time passage: ignored
	r.RankResumed(0, 900)
	got := r.m.times["sched.park:mpi.WinLock"]
	if len(got) == 0 || got[0] != 600 {
		t.Errorf("park time = %v", got)
	}
}

func TestStatsJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := New(Options{})
		r.BeginJob("job", &fakeClock{}, 2)
		r.RMA(RMA{Kind: RMAPut, Origin: 0, Target: 1, Bytes: 100})
		r.RMA(RMA{Kind: RMAGet, Packed: true, Origin: 1, Target: 0, Bytes: 50})
		r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 0, To: 12345, Peer: 1})
		r.Waited(Wait{Kind: WaitLock, Rank: 1, To: 777, Peer: 0})
		r.Waited(Wait{Kind: WaitMutex, Rank: 0, Peer: 1, N: 4})
		r.Xfer(Xfer{Src: 0, Dst: 1, Bytes: 100, NicS: 0, NicD: 1, Occupy: 999})
		var buf bytes.Buffer
		if err := r.WriteStatsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("stats JSON is not byte-deterministic")
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if _, ok := doc["counters"]; !ok {
		t.Error("missing counters")
	}
}

func TestFormatUs(t *testing.T) {
	cases := map[int64]string{
		0:       "0",
		1:       "0.001",
		999:     "0.999",
		1000:    "1",
		1500:    "1.5",
		1234567: "1234.567",
		-2500:   "-2.5",
	}
	for ns, want := range cases {
		if got := formatUs(ns); got != want {
			t.Errorf("formatUs(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestStatsTextReport(t *testing.T) {
	r := New(Options{})
	r.BeginJob("job", &fakeClock{}, 2)
	r.Waited(Wait{Kind: WaitLock, Rank: 0, To: 1500, Peer: 1})
	r.Waited(Wait{Kind: WaitLock, Excl: true, Rank: 1, To: 2500, Peer: 0})
	r.RMA(RMA{Kind: RMAPut, Origin: 0, Target: 1, Bytes: 4096})
	r.RMA(RMA{Kind: RMAPut, Packed: true, Origin: 0, Target: 1, Bytes: 128})
	for i := 0; i < 3; i++ {
		r.Waited(Wait{Kind: WaitFlush, Rank: 1, Peer: 0})
	}
	var buf bytes.Buffer
	if err := r.Stats().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rank", CBytesContig[:3], "4096", "128", "lock.wait.shared", "epoch.flush"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
}
