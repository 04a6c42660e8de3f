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
// workload, which the engine must reproduce exactly.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current engine")

// tracer is the run's observer: every scheduling callback and every
// mark a rank body or event handler makes, in the order they happen.
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

// at marks a timestamped point in p's body.
func (o *tracer) at(p *Proc, tag string) {
	o.lines = append(o.lines, fmt.Sprintf("r%d %s @%d", p.ID(), tag, p.Now()))
}

// unwind marks p's body unwinding; undated, because a drain happens
// after the last observable instant.
func (o *tracer) unwind(p *Proc) { o.lines = append(o.lines, fmt.Sprintf("r%d unwind", p.ID())) }

// ev marks an event handler.
func (o *tracer) ev(tag string) { o.lines = append(o.lines, "ev "+tag) }

// workload is a rank program plus the engine settings it needs.
type workload struct {
	name    string
	n       int
	maxTime Time
	body    func(e *Engine, m *tracer) func(*Proc)
}

// run executes w with the inline paths on or off and renders everything
// observable about it in golden-file form: the error, the Stats, and
// the tracer's stream.
func (w workload) run(noInline bool) string {
	e := NewEngine()
	e.noInline = noInline
	e.MaxTime = w.maxTime
	tr := &tracer{}
	e.Observe(tr)
	err := e.Run(w.n, w.body(e, tr))
	st := e.Stats()
	return fmt.Sprintf("err: %v\nstats: events=%d parks=%d final=%d\n", err, st.Events, st.Parks, st.FinalTime) +
		strings.Join(tr.lines, "\n") + "\n"
}

func goldenPath(name string) string { return filepath.Join("testdata", name+".golden") }

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
var schedWorkload = workload{name: "sched", n: 4, body: func(e *Engine, m *tracer) func(*Proc) {
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
// durations repeatedly collide at common multiples.
var tiesWorkload = workload{name: "ties", n: 6, body: func(e *Engine, m *tracer) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Elapse(Time(2 * (p.ID()%3 + 1)))
			m.at(p, "tick")
		}
	}
}}

// confinedWorkload is a message workload: every rank alternates
// compute elapses with messages to the rank halfway across the job,
// each landing at least 4 µs later through a handler that runs on
// arrival, and finishes only after receiving everything addressed to
// it — so the run ends quiescent.
var confinedWorkload = workload{name: "confined", n: 16, body: func(e *Engine, _ *tracer) func(*Proc) {
	const n, rounds, lat = 16, 6, 4000
	procs := make([]*Proc, n)
	inbox := make([]int, n)
	waiting := make([]bool, n)
	return func(p *Proc) {
		r := p.ID()
		procs[r] = p
		partner := (r + n/2) % n
		for i := 0; i < rounds; i++ {
			p.Elapse(Time(101*(r%7+1) + 13*i))
			e.At(p.Now()+lat+Time(17*r+11*i), func() {
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
}}

// parkWorkload is a job of parks that the parked rank's own events
// end, the shape of an RMA epoch: ranks 0 and 1 ping-pong lock and
// unlock requests whose grant and ack handlers each schedule the next
// hop, so every park is ended by a chain the rank started itself. Rank
// 2's park first wakes rank 3, which must run before rank 2's own wake;
// then three events tie at one instant (a mark, a wake of rank 3, rank
// 2's own wake). Rank 3 outlives the others and parks on a wake past
// MaxTime, so the run ends with the time limit hit while a parked rank
// dispatches the job's last event.
var parkWorkload = workload{name: "park", n: 4, maxTime: 400, body: func(e *Engine, m *tracer) func(*Proc) {
	procs := make([]*Proc, 4)
	rpc := func(p *Proc, why string, lat Time) {
		e.At(p.Now()+lat, func() {
			m.ev(fmt.Sprintf("%s req r%d", why, p.ID()))
			e.At(e.Now()+lat, func() {
				m.ev(fmt.Sprintf("%s reply r%d", why, p.ID()))
				e.Unpark(p)
			})
		})
		p.Park(why)
	}
	return func(p *Proc) {
		procs[p.ID()] = p
		switch p.ID() {
		case 0, 1:
			for i := 0; i < 4; i++ {
				rpc(p, "lock", Time(3+p.ID()))
				m.at(p, "locked")
				p.Elapse(2)
				rpc(p, "unlock", 3)
			}
			m.at(p, "pingpong-done")
		case 2:
			p.Elapse(1)
			e.At(p.Now()+5, func() { m.ev("release r3"); e.Unpark(procs[3]) })
			e.At(p.Now()+10, func() { e.Unpark(p) })
			p.Park("self")
			m.at(p, "self-woken")
			t := p.Now() + 20
			e.At(t, func() { m.ev("tie") })
			e.At(t, func() { e.Unpark(procs[3]) })
			e.At(t, func() { e.Unpark(p) })
			p.Park("tie")
			m.at(p, "tie-woken")
		case 3:
			defer m.unwind(p)
			p.Park("released")
			m.at(p, "released")
			p.Park("tie")
			m.at(p, "tie-released")
			p.Elapse(100)
			e.At(e.MaxTime+50, func() { e.Unpark(p) })
			p.Park("late")
			m.at(p, "late-woken")
		}
	}
}}

// The three abnormal ends. Each body marks its own unwinding, so the
// drain order is part of the recording.
var (
	drainPanic = workload{name: "drain_panic", n: 8, body: func(e *Engine, m *tracer) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			if p.ID() == 3 {
				p.Elapse(10)
				panic("kaboom")
			}
			p.Park("victim")
		}
	}}
	drainDeadlock = workload{name: "drain_deadlock", n: 8, body: func(e *Engine, m *tracer) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			p.Elapse(Time(1 + p.ID()%3))
			p.Park("forever")
		}
	}}
	drainMaxTime = workload{name: "drain_maxtime", n: 4, maxTime: 50, body: func(e *Engine, m *tracer) func(*Proc) {
		return func(p *Proc) {
			defer m.unwind(p)
			for {
				p.Elapse(30)
			}
		}
	}}
)

// checkGolden requires w's recording with the inline paths on or off to match
// testdata/<name>.golden, or rewrites the file under -update.
func (w workload) checkGolden(t *testing.T, noInline bool) {
	t.Helper()
	got := w.run(noInline)
	if *update {
		if err := os.WriteFile(goldenPath(w.name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath(w.name))
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("%s diverges from %s:\n%s", w.name, goldenPath(w.name), lineDiff(string(want), got))
	}
}

func inlinePaths(t *testing.T, f func(t *testing.T, noInline bool)) {
	t.Run("inline", func(t *testing.T) { f(t, false) })
	t.Run("noInline", func(t *testing.T) { f(t, true) })
}

// TestContinuationEquivalence: the coroutine dispatcher reproduces the
// recorded reference schedules of the full scheduling workload and of
// the message workload — same rank interleaving, same virtual
// timestamps, same engine counters, and the same observer callback
// sequence — with and without the inline paths.
func TestContinuationEquivalence(t *testing.T) {
	inlinePaths(t, func(t *testing.T, noInline bool) {
		schedWorkload.checkGolden(t, noInline)
		confinedWorkload.checkGolden(t, noInline)
	})
}

// TestContinuationEquivalenceManyRanks: colliding elapse multiples
// resolve in the recorded order with the inline paths on and off.
func TestContinuationEquivalenceManyRanks(t *testing.T) {
	for _, noInline := range []bool{false, true} {
		tiesWorkload.checkGolden(t, noInline)
	}
}

// TestInlineParkSchedule: parks that the parked rank's own events end,
// hand-overs to a rank woken first, ties at the wake instant and a time
// limit hit mid-dispatch reproduce the schedule recorded while only the
// dispatcher fired events for a parked rank, with and without the
// inline paths.
func TestInlineParkSchedule(t *testing.T) {
	inlinePaths(t, func(t *testing.T, noInline bool) { parkWorkload.checkGolden(t, noInline) })
}

// TestInlineElapseEquivalence proves, without reference to any
// recording, that the inline paths produce a schedule
// byte-identical to the plain park path.
func TestInlineElapseEquivalence(t *testing.T) {
	slow, fast := schedWorkload.run(true), schedWorkload.run(false)
	if slow != fast {
		t.Errorf("inline and parked Elapse diverge: %s", lineDiff(slow, fast))
	}
}

// TestInlineElapseEquivalenceManyRanks is the same for colliding ties.
func TestInlineElapseEquivalenceManyRanks(t *testing.T) {
	slow, fast := tiesWorkload.run(true), tiesWorkload.run(false)
	if slow != fast {
		t.Errorf("inline and parked Elapse diverge: %s", lineDiff(slow, fast))
	}
}
