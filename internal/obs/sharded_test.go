package obs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

const (
	shNRanks    = 8
	shRounds    = 5
	shLookahead = sim.Time(1000)
)

// shardedWorkload is a shard-confined exchange (cross-shard effects
// only through AtRank at >= Lookahead) instrumented through o: every
// record names the rank it concerns, which is all that files it in that
// rank's shard. It leaves counters, time metrics, histograms, gauges,
// spans, profiler scopes and matrix cells, per-node link telemetry
// (rank r lives on node r/2), and parks via the engine observer hookup
// the caller installs. The test.* series have no event of their own and
// go to the owning buffer directly.
func shardedWorkload(e *sim.Engine, o *Recorder) func(*sim.Proc) {
	inbox := make([]int, shNRanks)
	waiting := make([]*sim.Proc, shNRanks)
	return func(p *sim.Proc) {
		r := p.ID()
		partner := (r + shNRanks/2) % shNRanks
		for i := 0; i < shRounds; i++ {
			start := p.Now()
			o.OpBegin(r, profile.OpPut)
			p.Elapse(sim.Time(200 + 31*r + 7*i))
			o.Waited(Wait{Kind: WaitShmCopy, Rank: r, From: start, To: p.Now()})
			o.Sent(r, partner, profile.MsgPut, profile.RouteRMA, 64+r)
			o.OpEnd(r)
			o.Count(r, "test.sends", 1)
			b := o.of(r)
			b.m.AddTime(r, "test.busy", p.Now()-start)
			b.m.Observe(r, "test.step", p.Now()-start)
			b.m.MaxGauge(r, "test.round", int64(i+1))
			b.m.LinkBusy(r/2, sim.Time(50+r))
			b.tr.span(o.pid, r, "test", "step", start, p.Now(), nil)
			at := p.Now() + shLookahead + sim.Time(13*r+5*i)
			e.AtRank(at, r, partner, func() {
				o.Count(partner, "test.arrivals", 1)
				o.of(partner).tr.span(o.pid, partner, "net", "arrive", at, at, nil)
				inbox[partner]++
				if w := waiting[partner]; w != nil {
					waiting[partner] = nil
					e.Unpark(w)
				}
			})
		}
		for inbox[r] < shRounds {
			waiting[r] = p
			p.Park("recv")
		}
	}
}

// runShardedSeq drives the workload sequentially with one Recorder.
func runShardedSeq(t *testing.T) *Recorder {
	t.Helper()
	e := sim.NewEngine()
	r := New(Options{Trace: true, Profile: true})
	r.BeginJob("sharded-test", e, shNRanks)
	e.Observe(r)
	if err := e.Run(shNRanks, shardedWorkload(e, r)); err != nil {
		t.Fatal(err)
	}
	return r
}

// runShardedPar drives the workload on k shards, each with its private
// buffer of one recorder, and returns the merged view.
func runShardedPar(t *testing.T, k int) *Recorder {
	t.Helper()
	e := sim.NewEngine()
	e.Shards = k
	e.Lookahead = shLookahead
	s := NewSharded(Options{Trace: true, Profile: true}, k)
	e.ShardObservers = func(int) sim.Observer { return s }
	part := make([]int, shNRanks)
	for r := range part {
		part[r] = e.ShardOf(r, shNRanks)
	}
	s.BeginShardedJob("sharded-test", func(i int) Clock { return e.ShardClock(i) }, part)
	if err := e.Run(shNRanks, shardedWorkload(e, s)); err != nil {
		t.Fatal(err)
	}
	return s.Merge()
}

func diffI64(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func diffTime(t *testing.T, what string, got, want []sim.Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestShardedMergeEqualsSequential: the merged per-shard registries of
// a multi-shard run are the exact union a sequential run produces —
// counters, time metrics, histograms, gauges, link telemetry, park
// accounting, and profiler attribution all agree rank for rank.
func TestShardedMergeEqualsSequential(t *testing.T) {
	ref := runShardedSeq(t)
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			got := runShardedPar(t, k)
			gm, rm := got.Metrics(), ref.Metrics()
			for _, name := range []string{"test.sends", "test.arrivals"} {
				diffI64(t, name, gm.Counter(name), rm.Counter(name))
			}
			diffTime(t, "test.busy", gm.TimeOf("test.busy"), rm.TimeOf("test.busy"))
			diffTime(t, "sched.park:recv", gm.TimeOf("sched.park:recv"), rm.TimeOf("sched.park:recv"))
			diffI64(t, "test.round", gm.Gauge("test.round"), rm.Gauge("test.round"))
			diffTime(t, "links", gm.links, rm.links)
			gh, rh := gm.HistOf("test.step"), rm.HistOf("test.step")
			if len(gh) != len(rh) {
				t.Fatalf("hist ranks %d, want %d", len(gh), len(rh))
			}
			for i := range rh {
				if *gh[i] != *rh[i] {
					t.Errorf("hist[%d] = %+v, want %+v", i, gh[i], rh[i])
				}
			}
			gp, rp := got.Prof(), ref.Prof()
			gt, rt := gp.TotalHists(profile.OpPut), rp.TotalHists(profile.OpPut)
			if len(gt) != len(rt) {
				t.Fatalf("profile totals ranks %d, want %d", len(gt), len(rt))
			}
			for i := range rt {
				if gt[i] != rt[i] {
					t.Errorf("profile total[%d] = %+v, want %+v", i, gt[i], rt[i])
				}
			}
			gc, rc := gp.Cells(), rp.Cells()
			if len(gc) != len(rc) {
				t.Fatalf("profile cells %d, want %d", len(gc), len(rc))
			}
			for i := range rc {
				if gc[i] != rc[i] {
					t.Errorf("profile cell[%d] = %+v, want %+v", i, gc[i], rc[i])
				}
			}
		})
	}
}

// TestShardedTraceDeterministic: two identical multi-shard runs export
// byte-identical traces (per-shard buffers flushed in shard order),
// and job metadata appears exactly once in the merged stream.
func TestShardedTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runShardedPar(t, 4).WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := runShardedPar(t, 4).WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged trace differs between identical runs")
	}
	if n := bytes.Count(a.Bytes(), []byte(`"process_name"`)); n != 1 {
		t.Fatalf("process_name metadata appears %d times, want 1", n)
	}
	if a.Len() < 1000 {
		t.Fatalf("suspiciously small trace: %d bytes", a.Len())
	}
}

// TestShardedStatsJSON: the merged recorder feeds the standard report
// writers and its stats export is byte-stable across runs.
func TestShardedStatsJSON(t *testing.T) {
	var a, b bytes.Buffer
	if err := runShardedPar(t, 2).WriteStatsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := runShardedPar(t, 2).WriteStatsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged stats JSON differs between identical runs")
	}
}
