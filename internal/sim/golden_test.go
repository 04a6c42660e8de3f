package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files under testdata/ were recorded on the last commit
// that still had a goroutine-per-rank reference scheduler, and are the
// differential oracle that scheduler used to be: each holds the error,
// the Stats, and the complete observer + body-mark stream of one
// workload. One shard must reproduce a file exactly; several shards
// must reproduce the header and every rank's own stream.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current engine")

// tracer is one shard's observer: every scheduling callback and every
// mark a rank body makes, in the order they happen.
type tracer struct{ lines []string }

func (o *tracer) RankParked(rank int, why string, at Time) {
	o.lines = append(o.lines, fmt.Sprintf("r%d park %s @%d", rank, why, at))
}

func (o *tracer) RankResumed(rank int, at Time) {
	o.lines = append(o.lines, fmt.Sprintf("r%d resume @%d", rank, at))
}

func (o *tracer) RankFinished(rank int, at Time) {
	o.lines = append(o.lines, fmt.Sprintf("r%d finish @%d", rank, at))
}

// marker lets rank bodies and event handlers add their own lines to
// the shards' streams.
type marker struct {
	e  *Engine
	n  int
	tr []*tracer
}

func (m *marker) add(p *Proc, line string) {
	o := m.tr[m.e.ShardOf(p.ID(), m.n)]
	o.lines = append(o.lines, fmt.Sprintf("r%d %s", p.ID(), line))
}

// at marks a timestamped point in p's body.
func (m *marker) at(p *Proc, tag string) { m.add(p, fmt.Sprintf("%s @%d", tag, p.Now())) }

// unwind marks p's body unwinding; undated, because a drain happens
// after the last observable instant, wherever each shard's clock stood.
func (m *marker) unwind(p *Proc) { m.add(p, "unwind") }

// ev marks an event handler of a one-shard workload.
func (m *marker) ev(tag string) { m.tr[0].lines = append(m.tr[0].lines, "ev "+tag) }

// workload is a rank program plus the engine settings it needs.
type workload struct {
	name      string
	n         int
	maxTime   Time
	lookahead Time // > 0: shard-confined; the window multi-shard runs use
	body      func(e *Engine, m *marker) func(*Proc)
}

// recording is everything observable about one run.
type recording struct {
	head  string     // error text and Stats
	lines [][]string // per shard, in callback order
}

// String renders a one-shard recording in golden-file form.
func (r recording) String() string {
	return r.head + strings.Join(r.lines[0], "\n") + "\n"
}

// rankLines filters lines down to rank i's own stream.
func rankLines(lines []string, i int) []string {
	var out []string
	prefix := fmt.Sprintf("r%d ", i)
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return out
}

// run executes w on the given Elapse path, on an engine left at its
// defaults (shards == 0) or configured for an explicit shard count.
func (w workload) run(shards int, noInline bool) recording {
	e := NewEngine()
	e.noInlineElapse = noInline
	e.MaxTime = w.maxTime
	tr := []*tracer{{}}
	if shards > 0 {
		e.Shards = shards
		e.Lookahead = w.lookahead
		for len(tr) < shards {
			tr = append(tr, &tracer{})
		}
		e.ShardObservers = func(s int) Observer { return tr[s] }
	} else {
		e.Observe(tr[0])
	}
	err := e.Run(w.n, w.body(e, &marker{e: e, n: w.n, tr: tr}))
	st := e.Stats()
	rec := recording{head: fmt.Sprintf("err: %v\nstats: events=%d parks=%d final=%d\n", err, st.Events, st.Parks, st.FinalTime)}
	for _, o := range tr {
		rec.lines = append(rec.lines, o.lines)
	}
	return rec
}

// checkShards runs w at each multi-shard count and requires the golden
// header (error, Stats) and every rank's own stream.
func (w workload) checkShards(t *testing.T, golden string, noInline bool, counts ...int) {
	t.Helper()
	head, body := cutHead(golden)
	for _, k := range counts {
		rec := w.run(k, noInline)
		if rec.head != head {
			t.Errorf("%s at %d shards: header\n%swant\n%s", w.name, k, rec.head, head)
		}
		var all []string
		for _, l := range rec.lines {
			all = append(all, l...)
		}
		for i := 0; i < w.n; i++ {
			got, want := rankLines(all, i), rankLines(body, i)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s at %d shards: rank %d stream\n%v\nwant\n%v", w.name, k, i, got, want)
			}
		}
	}
}

// cutHead splits golden text into its two header lines and the stream.
func cutHead(golden string) (head string, lines []string) {
	parts := strings.SplitAfterN(golden, "\n", 3)
	return parts[0] + parts[1], strings.Split(strings.TrimSuffix(parts[2], "\n"), "\n")
}

func goldenPath(name string) string { return filepath.Join("testdata", name+".golden") }

// checkGolden compares got with testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) string {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("%s diverges from %s:\n%s", name, goldenPath(name), lineDiff(string(want), got))
	}
	return string(want)
}

// lineDiff reports the first differing line of two texts.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "identical"
}

// readSections parses a golden file made of "== label" sections — one
// recording per scheduler the recording commit had — in file order.
func readSections(t *testing.T, name string) (labels []string, bodies map[string]string) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	bodies = map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		label, body, _ := strings.Cut(sec, "\n")
		labels = append(labels, label)
		bodies[label] = body
	}
	return labels, bodies
}

// writeSections rewrites a sectioned golden with got under every label.
func writeSections(t *testing.T, name string, labels []string, got string) {
	t.Helper()
	var b strings.Builder
	for _, l := range labels {
		b.WriteString("== " + l + "\n" + got)
	}
	if err := os.WriteFile(goldenPath(name), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// schedWorkload exercises every scheduling pathway the engine has:
// inline-eligible elapses, elapses with events due before the wake,
// events that unpark other ranks mid-elapse (forcing the reserved-seq
// fallback), exact ties at the wake time, and explicit park/unpark
// handshakes. Every rank marks the shared stream, so any divergence in
// rank interleaving shows up directly.
var schedWorkload = workload{name: "sched", n: 4, body: func(e *Engine, m *marker) func(*Proc) {
	procs := make([]*Proc, 4)
	return func(p *Proc) {
		procs[p.ID()] = p
		switch p.ID() {
		case 0:
			// Plain elapses, plus a handler scheduled to fire strictly
			// inside the second elapse window.
			p.Elapse(10)
			m.at(p, "a")
			e.At(p.Now()+5, func() { m.ev("0") })
			p.Elapse(20)
			m.at(p, "b")
			// Handler at exactly the wake time: it was scheduled first,
			// so it must win the tie.
			e.At(p.Now()+7, func() { m.ev("tie") })
			p.Elapse(7)
			m.at(p, "c")
		case 1:
			// Handshake: park until rank 2 unparks us mid-elapse.
			p.Elapse(3)
			m.at(p, "wait")
			p.Park("handshake")
			m.at(p, "woken")
			p.Elapse(50)
			m.at(p, "done")
		case 2:
			// Unpark rank 1 from an event handler that fires while some
			// other rank is elapsing — the inline path must fall back.
			e.At(15, func() { e.Unpark(procs[1]) })
			p.Elapse(40)
			m.at(p, "d")
		case 3:
			// Tight loop of short elapses to interleave with everyone.
			for i := 0; i < 8; i++ {
				p.Elapse(6)
			}
			m.at(p, "loop-done")
		}
	}
}}

// tiesWorkload stresses the tie-break machinery with ranks whose elapse
// durations repeatedly collide at common multiples. Ranks never
// interact, so it is shard-confined under any window.
var tiesWorkload = workload{name: "ties", n: 6, lookahead: 5, body: func(e *Engine, m *marker) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Elapse(Time(2 * (p.ID()%3 + 1)))
			m.at(p, "tick")
		}
	}
}}

// confinedWorkload is a shard-confined message workload: every rank
// alternates compute elapses with messages to the rank halfway across
// the job, sent through AtRank with at least lat of virtual delay, and
// finishes only after receiving everything addressed to it — so the
// run ends quiescent and is schedule-equivalent under any contiguous
// partition. All mutable state is per-rank and touched only by the
// owning rank's shard (message handlers run at the destination).
func confinedBody(e *Engine, n, rounds int, lat Time) func(*Proc) {
	procs := make([]*Proc, n)
	inbox := make([]int, n)
	waiting := make([]bool, n)
	return func(p *Proc) {
		r := p.ID()
		procs[r] = p
		partner := (r + n/2) % n
		for i := 0; i < rounds; i++ {
			p.Elapse(Time(101*(r%7+1) + 13*i))
			at := p.Now() + lat + Time(17*r+11*i)
			e.AtRank(at, r, partner, func() {
				inbox[partner]++
				if waiting[partner] {
					waiting[partner] = false
					e.Unpark(procs[partner])
				}
			})
		}
		for inbox[r] < rounds {
			waiting[r] = true
			p.Park("recv")
		}
	}
}

var confinedWorkload = workload{name: "confined", n: 16, lookahead: 4000, body: func(e *Engine, _ *marker) func(*Proc) {
	return confinedBody(e, 16, 6, 4000)
}}

// The three abnormal ends. Each body marks its own unwinding, so the
// drain order is part of the recording.
var (
	drainPanic = workload{name: "drain_panic", n: 8, lookahead: 1000, body: func(e *Engine, m *marker) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			if p.ID() == 3 {
				p.Elapse(10)
				panic("kaboom")
			}
			p.Park("victim")
		}
	}}
	drainDeadlock = workload{name: "drain_deadlock", n: 8, lookahead: 1000, body: func(e *Engine, m *marker) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			p.Elapse(Time(1 + p.ID()%3))
			p.Park("forever")
		}
	}}
	drainMaxTime = workload{name: "drain_maxtime", n: 4, maxTime: 50, lookahead: 1000, body: func(e *Engine, m *marker) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			for {
				p.Elapse(30)
			}
		}
	}}
)

// checkGolden requires w's recording on a default engine to match its
// golden file, and returns the golden text.
func (w workload) checkGolden(t *testing.T, noInline bool) string {
	t.Helper()
	return checkGolden(t, w.name, w.run(0, noInline).String())
}

func elapsePaths(t *testing.T, f func(t *testing.T, noInline bool)) {
	t.Run("inline", func(t *testing.T) { f(t, false) })
	t.Run("noInline", func(t *testing.T) { f(t, true) })
}

// TestContinuationEquivalence: the coroutine dispatcher reproduces the
// recorded reference schedule of the full scheduling workload — same
// rank interleaving, same virtual timestamps, same engine counters, and
// the same observer callback sequence — with and without the
// inline-Elapse fast path.
func TestContinuationEquivalence(t *testing.T) {
	elapsePaths(t, func(t *testing.T, noInline bool) { schedWorkload.checkGolden(t, noInline) })
}

// TestContinuationEquivalenceManyRanks: colliding elapse multiples
// resolve in the recorded order on both Elapse paths and, per rank, at
// 2 and 3 shards.
func TestContinuationEquivalenceManyRanks(t *testing.T) {
	for _, noInline := range []bool{false, true} {
		golden := tiesWorkload.checkGolden(t, noInline)
		tiesWorkload.checkShards(t, golden, noInline, 2, 3)
	}
}

// TestInlineElapseEquivalence proves, without reference to any
// recording, that the inline Elapse fast path produces a schedule
// byte-identical to the plain park path.
func TestInlineElapseEquivalence(t *testing.T) {
	slow, fast := schedWorkload.run(0, true).String(), schedWorkload.run(0, false).String()
	if slow != fast {
		t.Errorf("inline and parked Elapse diverge: %s", lineDiff(slow, fast))
	}
}

// TestInlineElapseEquivalenceManyRanks is the same for colliding ties.
func TestInlineElapseEquivalenceManyRanks(t *testing.T) {
	slow, fast := tiesWorkload.run(0, true).String(), tiesWorkload.run(0, false).String()
	if slow != fast {
		t.Errorf("inline and parked Elapse diverge: %s", lineDiff(slow, fast))
	}
}

// TestParallelEquivalence is the acceptance test for sharding: for a
// shard-confined workload, engine counters, final time, and every
// rank's observer stream at 2, 4, and 8 shards are those of the
// recorded one-shard reference — with and without the inline-Elapse
// fast path.
func TestParallelEquivalence(t *testing.T) {
	elapsePaths(t, func(t *testing.T, noInline bool) {
		golden := confinedWorkload.checkGolden(t, noInline)
		confinedWorkload.checkShards(t, golden, noInline, 2, 4, 8)
	})
}

// TestParallelDeterminism: two identical multi-shard runs produce
// identical stats and observer streams regardless of host scheduling.
func TestParallelDeterminism(t *testing.T) {
	a, b := confinedWorkload.run(4, false), confinedWorkload.run(4, false)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("repeat 4-shard runs differ:\n%v\n%v", a, b)
	}
}

// TestParallelSingleShardWorkload: spelling the one-shard configuration
// out (Shards = 1, per-shard observers) changes nothing — the full
// scheduling workload still reproduces its recording.
func TestParallelSingleShardWorkload(t *testing.T) {
	elapsePaths(t, func(t *testing.T, noInline bool) {
		checkGolden(t, schedWorkload.name, schedWorkload.run(1, noInline).String())
	})
}
