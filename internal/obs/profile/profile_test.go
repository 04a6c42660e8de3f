package profile

import (
	"testing"

	"repro/internal/sim"
)

type clock struct{ t sim.Time }

func (c *clock) Now() sim.Time { return c.t }

// phaseLog is a Sink keeping the raw stream.
type phaseLog struct {
	phases []struct {
		rank       int
		op         Op
		ph         Phase
		start, end sim.Time
	}
	scopes int
}

func (l *phaseLog) RawPhase(rank int, op Op, ph Phase, start, end sim.Time) {
	l.phases = append(l.phases, struct {
		rank       int
		op         Op
		ph         Phase
		start, end sim.Time
	}{rank, op, ph, start, end})
}
func (l *phaseLog) RawScope(int, Op, sim.Time, sim.Time) { l.scopes++ }

// phaseSum is what rank's scopes of op attributed to ph.
func phaseSum(p *Profiler, op Op, ph Phase, rank int) int64 {
	if hs := p.PhaseHists(op, ph); rank < len(hs) {
		return hs[rank].SumNs
	}
	return 0
}

// TestCursorAttribution: an interval is credited only past the scope's
// cursor, so overlapping reports never double-count, and what no phase
// claimed is the residual "other": the phases of a closed scope sum to
// its measured latency exactly.
func TestCursorAttribution(t *testing.T) {
	c := &clock{}
	p := New()
	p.BeginJob(c)
	c.t = 100
	p.Begin(0, OpPut)
	p.PhaseAt(0, PhaseLockWait, 100, 140) // [100,140)
	p.PhaseAt(0, PhaseWire, 120, 200)     // overlaps the lock wait: [140,200) counts
	p.PhaseAt(0, PhasePack, 150, 180)     // wholly behind the cursor: nothing
	p.PhaseAt(0, PhaseTargetProc, 230, 260)
	c.t = 300
	p.End(0)

	want := map[Phase]int64{PhaseLockWait: 40, PhaseWire: 60, PhaseTargetProc: 30, PhaseOther: 70}
	var sum int64
	for ph := Phase(0); ph < NumPhases; ph++ {
		got := phaseSum(p, OpPut, ph, 0)
		if got != want[ph] {
			t.Errorf("%v = %d ns, want %d", ph, got, want[ph])
		}
		sum += got
	}
	if tot := p.TotalHists(OpPut)[0]; tot.Count != 1 || tot.SumNs != 200 || sum != tot.SumNs {
		t.Errorf("total = %+v, phases sum to %d; want one 200 ns scope tiled exactly", tot, sum)
	}
}

// TestNestedScopesFold: a Begin inside an open scope (a nonblocking
// call falling through to its blocking twin) folds into the outer
// scope — one operation, under the outer op, closed by the last End.
func TestNestedScopesFold(t *testing.T) {
	c := &clock{}
	p := New()
	sink := &phaseLog{}
	p.SetSink(sink)
	p.BeginJob(c)
	p.Begin(1, OpNbPut)
	c.t = 10
	p.Begin(1, OpPut)
	p.PhaseAt(1, PhaseWire, 10, 50)
	c.t = 60
	p.End(1)
	if got := p.TotalHists(OpNbPut); len(got) > 1 && got[1].Count != 0 {
		t.Fatal("inner End closed the outer scope")
	}
	p.PhaseAt(1, PhaseEpochWait, 60, 80)
	c.t = 90
	p.End(1)
	if p.TotalHists(OpPut) != nil {
		t.Error("the nested put was recorded as its own operation")
	}
	if tot := p.TotalHists(OpNbPut)[1]; tot.Count != 1 || tot.SumNs != 90 {
		t.Errorf("outer scope total = %+v, want one 90 ns nbput", tot)
	}
	if w, e := phaseSum(p, OpNbPut, PhaseWire, 1), phaseSum(p, OpNbPut, PhaseEpochWait, 1); w != 40 || e != 20 {
		t.Errorf("wire/epoch = %d/%d ns, want 40/20 under the outer op", w, e)
	}
	if sink.scopes != 1 || len(sink.phases) != 2 || sink.phases[0].op != OpNbPut {
		t.Errorf("sink saw %d scopes and %+v, want one scope and two phases under nbput", sink.scopes, sink.phases)
	}
}

// TestNegativeResidualClamps: a nonblocking issue returns before its
// wire interval ends, so the phases outlast the measured latency; the
// recorded total is then the phase sum and nothing goes to "other".
func TestNegativeResidualClamps(t *testing.T) {
	c := &clock{}
	p := New()
	p.BeginJob(c)
	p.Begin(0, OpNbGet)
	p.PhaseAt(0, PhaseWire, 0, 500)
	c.t = 100
	p.End(0)
	if tot := p.TotalHists(OpNbGet)[0]; tot.SumNs != 500 {
		t.Errorf("total = %d ns, want the 500 ns phase sum", tot.SumNs)
	}
	if other := phaseSum(p, OpNbGet, PhaseOther, 0); other != 0 {
		t.Errorf("other = %d ns, want 0", other)
	}
}

// TestSealedScopeDropsLatePhases: with no open scope an attribution is
// dropped (it must not leak into the next operation) — but the sink
// still sees it, under NumOps.
func TestSealedScopeDropsLatePhases(t *testing.T) {
	c := &clock{}
	p := New()
	sink := &phaseLog{}
	p.SetSink(sink)
	p.BeginJob(c)
	p.PhaseAt(2, PhaseTargetProc, 0, 40)
	p.Begin(2, OpAcc)
	c.t = 50
	p.End(2)
	if got := phaseSum(p, OpAcc, PhaseTargetProc, 2); got != 0 {
		t.Errorf("a phase reported before Begin was credited: %d ns", got)
	}
	if len(sink.phases) != 1 || sink.phases[0].op != NumOps {
		t.Errorf("sink saw %+v, want the one phase under NumOps", sink.phases)
	}
}
