package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testParams() Params {
	return Params{
		Name: "test", Nodes: 4, CoresPerNode: 2,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
		LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9,
		PageSize: 4096, PinPageNs: 1000, BounceThreshold: 8192,
		BounceRate: 1e9, UnpinnedRate: 0.5e9, AccumRate: 1e9,
	}
}

func newTestMachine(t *testing.T, nranks int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := NewMachine(eng, testParams(), nranks)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.CoresPerNode = 0 },
		func(p *Params) { p.Bandwidth = 0 },
		func(p *Params) { p.CopyRate = 0 },
		func(p *Params) { p.PageSize = 0 },
		func(p *Params) { p.AccumRate = 0 },
	}
	for i, mut := range cases {
		p := testParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad params", i)
		}
	}
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestNewMachineRejectsBadRankCounts(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewMachine(eng, testParams(), 0); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := NewMachine(eng, testParams(), 9); err == nil {
		t.Error("9 ranks on a 4x2 machine accepted")
	}
}

func TestNodeMapping(t *testing.T) {
	_, m := newTestMachine(t, 8)
	if m.NodeOf(0) != 0 || m.NodeOf(1) != 0 || m.NodeOf(2) != 1 {
		t.Errorf("NodeOf mapping wrong: %d %d %d", m.NodeOf(0), m.NodeOf(1), m.NodeOf(2))
	}
	if !m.SameNode(0, 1) || m.SameNode(1, 2) {
		t.Error("SameNode wrong")
	}
}

func TestDeliverAndRecv(t *testing.T) {
	eng, m := newTestMachine(t, 4)
	var gotFrom, gotTag int
	err := eng.Run(4, func(p *sim.Proc) {
		switch p.ID() {
		case 0:
			m.Deliver(3, &Msg{From: 0, Kind: 7, Tag: 42, Size: 100}, XferOpt{})
		case 3:
			msg := m.Recv(p, Match{Kinds: 1 << 7, From: Any, Tag: Any})
			gotFrom, gotTag = msg.From, msg.Tag
			if msg.Arrived <= 0 {
				t.Error("message arrived at time 0; transfer cost missing")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotFrom != 0 || gotTag != 42 {
		t.Errorf("got from=%d tag=%d, want 0, 42", gotFrom, gotTag)
	}
}

func TestRecvBlocksUntilMatch(t *testing.T) {
	eng, m := newTestMachine(t, 2)
	err := eng.Run(2, func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Elapse(50_000)
			m.Deliver(1, &Msg{From: 0, Tag: 1}, XferOpt{})
		} else {
			msg := m.Recv(p, Match{From: Any, Tag: 1})
			if p.Now() < 50_000 {
				t.Errorf("recv returned at %v, before the send at 50us", p.Now())
			}
			if msg.From != 0 {
				t.Errorf("msg.From = %d", msg.From)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesInArrivalOrder(t *testing.T) {
	eng, m := newTestMachine(t, 2)
	err := eng.Run(2, func(p *sim.Proc) {
		if p.ID() == 0 {
			m.Deliver(1, &Msg{From: 0, Tag: 1, Payload: "first"}, XferOpt{})
			p.Elapse(10_000)
			m.Deliver(1, &Msg{From: 0, Tag: 1, Payload: "second"}, XferOpt{})
		} else {
			p.Elapse(100_000) // both queued by now
			a := m.Recv(p, Match{From: Any, Tag: 1})
			b := m.Recv(p, Match{From: Any, Tag: 1})
			if a.Payload != "first" || b.Payload != "second" {
				t.Errorf("order: got %v then %v", a.Payload, b.Payload)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	eng, m := newTestMachine(t, 2)
	err := eng.Run(2, func(p *sim.Proc) {
		if p.ID() == 0 {
			m.Deliver(1, &Msg{From: 0, Tag: 9}, XferOpt{})
		} else {
			if _, ok := m.boxes[p.ID()].take(Match{From: Any, Tag: 9}); ok {
				t.Error("take matched before delivery")
			}
			p.Elapse(100_000)
			if _, ok := m.boxes[p.ID()].take(Match{From: Any, Tag: 9}); !ok {
				t.Error("take missed a queued message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthDominatesLargeTransfers(t *testing.T) {
	eng, m := newTestMachine(t, 4)
	// 100 MB at 1 GB/s should take ~0.1s of virtual time.
	err := eng.Run(4, func(p *sim.Proc) {
		if p.ID() == 0 {
			start := p.Now()
			m.SleepUntil(p, m.SendDataAsync(p.ID(), 2, 100<<20, XferOpt{}))
			elapsed := (p.Now() - start).Seconds()
			if elapsed < 0.09 || elapsed > 0.15 {
				t.Errorf("100MB at 1GB/s took %.3fs, want ~0.105s", elapsed)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNICOccupancySerializesTransfers(t *testing.T) {
	eng, m := newTestMachine(t, 6)
	// Ranks 0 and 2 (different nodes) both send 10MB to rank 4's node.
	// The destination NIC serializes: total time ~2x one transfer.
	var tEach, tBoth sim.Time
	err := eng.Run(6, func(p *sim.Proc) {
		if p.ID() == 0 {
			m.SleepUntil(p, m.SendDataAsync(p.ID(), 4, 10<<20, XferOpt{}))
			tEach = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := sim.NewEngine()
	m2, _ := NewMachine(eng2, testParams(), 6)
	err = eng2.Run(6, func(p *sim.Proc) {
		if p.ID() == 0 || p.ID() == 2 {
			m2.SleepUntil(p, m2.SendDataAsync(p.ID(), 4, 10<<20, XferOpt{}))
			if p.Now() > tBoth {
				tBoth = p.Now()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if float64(tBoth) < 1.8*float64(tEach) {
		t.Errorf("two senders to one NIC finished at %v, want >= 1.8x single-sender %v", tBoth, tEach)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	eng, m := newTestMachine(t, 4)
	err := eng.Run(4, func(p *sim.Proc) {
		if p.ID() != 0 {
			return
		}
		start := p.Now()
		m.SleepUntil(p, m.SendDataAsync(p.ID(), 1, 1<<20, XferOpt{})) // same node
		local := p.Now() - start
		start = p.Now()
		m.SleepUntil(p, m.SendDataAsync(p.ID(), 2, 1<<20, XferOpt{})) // other node
		remote := p.Now() - start
		if local >= remote {
			t.Errorf("intra-node (%v) should beat inter-node (%v)", local, remote)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeChargesFlops(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	err := eng.Run(1, func(p *sim.Proc) {
		m.Compute(p, 1e9) // 1 Gflop at 1 Gflop/s = 1s
		if got := p.Now().Seconds(); got < 0.99 || got > 1.01 {
			t.Errorf("1e9 flops took %.3fs, want 1s", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddrSpaceAllocFindFree(t *testing.T) {
	_, m := newTestMachine(t, 2)
	s := m.Space(0)
	r1 := s.Alloc(100, DomainARMCI, true)
	r2 := s.Alloc(200, DomainMPI, false)
	if r1.VA == 0 || r2.VA == 0 {
		t.Fatal("allocated at NULL")
	}
	if r1.VA+int64(r1.Len) > r2.VA {
		t.Fatal("regions overlap")
	}
	if got := s.Find(r1.VA+10, 5); got != r1 {
		t.Errorf("Find inside r1 = %v", got)
	}
	if got := s.Find(r2.VA, 200); got != r2 {
		t.Errorf("Find r2 = %v", got)
	}
	if got := s.Find(r2.VA, 201); got != nil {
		t.Errorf("Find past r2 end should be nil, got %v", got)
	}
	if err := s.Free(r1.VA); err != nil {
		t.Fatal(err)
	}
	if got := s.Find(r1.VA, 1); got != nil {
		t.Error("freed region still findable")
	}
	if err := s.Free(r1.VA); err == nil {
		t.Error("double free not detected")
	}
}

func TestAddrSpaceZeroLengthAllocsDistinct(t *testing.T) {
	_, m := newTestMachine(t, 1)
	s := m.Space(0)
	a := s.Alloc(0, DomainNone, false)
	b := s.Alloc(0, DomainNone, false)
	if a.VA == b.VA {
		t.Error("zero-length allocations share an address")
	}
}

func TestRegionBytesAndBoundsPanic(t *testing.T) {
	_, m := newTestMachine(t, 1)
	r := m.Space(0).Alloc(64, DomainNone, false)
	b := r.Bytes(r.VA+8, 8)
	b[0] = 0xAB
	if r.Backing()[8] != 0xAB {
		t.Error("Bytes does not alias region data")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Bytes did not panic")
		}
	}()
	r.Bytes(r.VA+60, 8)
}

func TestPinCostAndCaching(t *testing.T) {
	_, m := newTestMachine(t, 1)
	r := m.Space(0).Alloc(3*4096+100, DomainNone, false)
	c1 := m.PinCost(r, DomainMPI)
	if c1 <= 0 {
		t.Fatal("first pin should cost time")
	}
	if want := sim.FromSeconds(4 * 1000 / 1e9); c1 != want {
		t.Errorf("pin cost = %v, want %v (4 pages)", c1, want)
	}
	if c2 := m.PinCost(r, DomainMPI); c2 != 0 {
		t.Errorf("second pin cost = %v, want 0 (cached)", c2)
	}
	if c3 := m.PinCost(r, DomainARMCI); c3 <= 0 {
		t.Error("other domain should pay its own registration")
	}
}

func TestPrepinnedRegionsFreeForOwnDomain(t *testing.T) {
	_, m := newTestMachine(t, 1)
	r := m.Space(0).Alloc(1<<20, DomainARMCI, true)
	if !r.PinnedFor(DomainARMCI) {
		t.Error("prepinned region not pinned for its domain")
	}
	if r.PinnedFor(DomainMPI) {
		t.Error("prepinned region should not be pinned for the other domain")
	}
	if c := m.PinCost(r, DomainARMCI); c != 0 {
		t.Errorf("own-domain pin cost = %v, want 0", c)
	}
}

func TestAddrArithmetic(t *testing.T) {
	a := Addr{Rank: 3, VA: 0x1000}
	if b := a.Add(16); b.VA != 0x1010 || b.Rank != 3 {
		t.Errorf("Add: %v", b)
	}
	if d := a.Add(16).Sub(a); d != 16 {
		t.Errorf("Sub = %d", d)
	}
	if !(Addr{}).Nil() || a.Nil() {
		t.Error("Nil() wrong")
	}
}

func TestAddrSubAcrossRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-rank Sub did not panic")
		}
	}()
	Addr{Rank: 0, VA: 10}.Sub(Addr{Rank: 1, VA: 5})
}

func TestFindPropertyAllocatedAlwaysFound(t *testing.T) {
	_, m := newTestMachine(t, 1)
	s := m.Space(0)
	if err := quick.Check(func(sizes []uint16) bool {
		var regs []*Region
		for _, sz := range sizes {
			regs = append(regs, s.Alloc(int(sz), DomainNone, false))
		}
		for _, r := range regs {
			if r.Len > 0 && s.Find(r.VA, r.Len) != r {
				return false
			}
			if r.Len > 1 && s.Find(r.VA+int64(r.Len/2), 1) != r {
				return false
			}
		}
		for _, r := range regs {
			if s.Free(r.VA) != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripTime(t *testing.T) {
	_, m := newTestMachine(t, 4)
	inter := m.RoundTripTime(0, 2)
	intra := m.RoundTripTime(0, 1)
	if intra >= inter {
		t.Errorf("intra-node RTT %v should beat inter-node %v", intra, inter)
	}
	if want := sim.FromSeconds(2 * (1000 + 100) / 1e9); inter != want {
		t.Errorf("inter RTT = %v, want %v", inter, want)
	}
}
