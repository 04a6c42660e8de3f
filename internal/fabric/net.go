package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Msg is a message delivered into a rank's mailbox. Kind, Ctx and Tag
// are interpreted by the layer that sent the message (the fabric itself
// attaches no meaning; receives select on them, see Match). Payload
// carries protocol state by reference — the simulation does not
// serialize it; Size alone determines cost.
type Msg struct {
	From    int
	Kind    int
	Ctx     int
	Tag     int
	Size    int
	Payload interface{}
	Arrived sim.Time

	// chain is the message's dependence edge (zero when observability
	// is off): set at the send site, it names the delivery as the wake
	// cause of whoever it releases.
	chain obs.Ref

	// In flight the message is its own arrival event (landing): box is
	// where it lands.
	box *mailbox
}

// Any is the wildcard for Match.From and Match.Tag.
const Any = -1

// Match selects the messages a receive accepts, by header alone and by
// value: one of a set of kinds, one context, and one sender and one tag
// or either as Any.
type Match struct {
	Kinds uint64 // bit k accepts Kind k (0 <= k < 64); zero accepts every kind
	Ctx   int
	From  int
	Tag   int
}

func (k Match) accepts(msg *Msg) bool {
	return (k.Kinds == 0 || k.Kinds&(1<<uint(msg.Kind)) != 0) && msg.Ctx == k.Ctx &&
		(k.From == Any || msg.From == k.From) && (k.Tag == Any || msg.Tag == k.Tag)
}

// mailbox holds a rank's delivered-but-unreceived messages and what is
// waiting on a match: the rank itself, blocked in Recv (a rank blocks
// in at most one receive, so this is one slot), and OnRecv callbacks.
// A parked receive or callback never matches a queued message — it
// looked before parking, and every later arrival is offered to it
// first — so an arrival is the only message that can release one.
type mailbox struct {
	m     *Machine
	owner int // rank this mailbox belongs to
	queue []*Msg

	blocked *sim.Proc // the rank, parked in Recv; nil when it is not
	want    Match     // what blocked waits for
	got     *Msg      // what released it, until Recv returns it

	callbacks []callback
}

// callback is an OnRecv registration: fn runs in event context on the
// first message match accepts.
type callback struct {
	match Match
	fn    func(*Msg)
}

// XferOpt tunes the cost model of a single transfer.
type XferOpt struct {
	Rate     float64 // override bandwidth (B/s); 0 = platform default
	Overhead float64 // extra per-message origin overhead (ns)
	NoNIC    bool    // do not occupy NIC links (e.g. pure control)
}

// xferCost computes the (start, arrive) times of moving n bytes from
// rank src to rank dst starting no earlier than now, updating NIC
// occupancy. Intra-node transfers use the shared-memory path and do not
// occupy NICs.
func (m *Machine) xferCost(now sim.Time, src, dst, n int, opt XferOpt) (start, arrive sim.Time) {
	par := &m.Par
	m.MsgsSent++
	m.BytesSent += int64(n)
	if m.SameNode(src, dst) {
		rate := opt.Rate
		if rate == 0 {
			rate = par.LocalBandwidth
		}
		dur := par.LocalLatencyNs + opt.Overhead + float64(n)/rate*1e9
		start = now
		arrive = now + sim.FromSeconds(dur/1e9)
		if arrive <= now {
			arrive = now + 1
		}
		if m.Obs != nil {
			m.Obs.Xfer(obs.Xfer{Src: src, Dst: dst, Bytes: n, NicS: -1, NicD: -1,
				Now: now, Base: now, Start: start, Arrive: arrive})
		}
		return start, arrive
	}
	rate := opt.Rate
	if rate == 0 {
		rate = par.Bandwidth
	}
	base := now + sim.FromSeconds((par.MsgOverhead+opt.Overhead)/1e9)
	start = base
	occupy := sim.FromSeconds(float64(n) / rate)
	sn, dn := -1, -1
	if !opt.NoNIC {
		sn, dn = m.NodeOf(src), m.NodeOf(dst)
		s, d := &m.nics[sn], &m.nics[dn]
		if s.freeAt > start {
			start = s.freeAt
		}
		if d.freeAt > start {
			start = d.freeAt
		}
		s.freeAt = start + occupy
		d.freeAt = start + occupy
	}
	arrive = start + occupy + sim.FromSeconds(par.LatencyNs/1e9)
	if arrive <= now {
		arrive = now + 1
	}
	if m.Obs != nil {
		m.Obs.Xfer(obs.Xfer{Src: src, Dst: dst, Bytes: n, NicS: sn, NicD: dn,
			Now: now, Base: base, Start: start, Occupy: occupy, Arrive: arrive})
	}
	return start, arrive
}

// Deliver moves a message from rank msg.From to rank dst, charging the
// cost model, and delivers it into dst's mailbox at the arrival time.
// It does not block the caller; use the returned arrival time to model
// blocking semantics. Must be called from a rank body or event handler.
func (m *Machine) Deliver(dst int, msg *Msg, opt XferOpt) sim.Time {
	if dst < 0 || dst >= m.NRanks {
		panic(fmt.Sprintf("fabric: Deliver to bad rank %d", dst))
	}
	now := m.Eng.Now()
	start, arrive := m.xferCost(now, msg.From, dst, msg.Size, opt)
	if m.Obs != nil {
		nicS, nicD := m.xferNics(msg.From, dst, opt)
		msg.chain = m.Obs.MsgHop(msg.From, now, start, arrive, nicS, nicD)
	}
	msg.box, msg.Arrived = m.boxes[dst], arrive
	m.Eng.AtEvent(arrive, (*landing)(msg))
	return arrive
}

// landing is a message in flight as the event of its arrival.
type landing Msg

func (l *landing) Fire() {
	msg := (*Msg)(l)
	msg.box.land(msg)
}

// handle runs a message's event-context handler on rank under the
// message's provenance: whatever the handler sends or wakes is chained
// to the delivery that triggered it.
func (m *Machine) handle(rank int, msg *Msg, fn func(*Msg)) {
	prev := m.Obs.Enter(rank, msg.chain)
	fn(msg)
	m.Obs.Leave(rank, prev)
}

// land offers an arrived message to what waits on the mailbox — the
// blocked receive first, then callbacks in registration order — and
// queues it if nothing takes it. A callback runs inline (event context,
// see handle); the blocked rank has the message named as its wake
// cause, then is unparked.
func (b *mailbox) land(msg *Msg) {
	m := b.m
	if p := b.blocked; p != nil && b.want.accepts(msg) {
		b.blocked, b.got = nil, msg
		m.Obs.WakeCause(p.ID(), msg.chain)
		m.Eng.Unpark(p)
		return
	}
	for i, cb := range b.callbacks {
		if cb.match.accepts(msg) {
			b.callbacks = append(b.callbacks[:i], b.callbacks[i+1:]...)
			m.handle(b.owner, msg, cb.fn)
			return
		}
	}
	b.queue = append(b.queue, msg)
}

// take removes and returns the first queued message k accepts.
func (b *mailbox) take(k Match) (*Msg, bool) {
	for i, msg := range b.queue {
		if k.accepts(msg) {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return msg, true
		}
	}
	return nil, false
}

// Recv blocks the calling rank until a message k accepts is available
// in its mailbox and returns it. Messages are matched in arrival order.
func (m *Machine) Recv(p *sim.Proc, k Match) *Msg {
	box := m.boxes[p.ID()]
	if msg, ok := box.take(k); ok {
		return msg
	}
	box.blocked, box.want = p, k
	p.Park("fabric.Recv")
	msg := box.got
	box.got = nil
	return msg
}

// OnRecv registers a one-shot callback on a rank's mailbox: when a
// message k accepts arrives (or is already queued), it is consumed and
// fn runs in event context. Used for event-driven protocols (e.g. the
// MPI rendezvous sender) that must progress while the owning rank is
// busy or parked elsewhere.
func (m *Machine) OnRecv(rank int, k Match, fn func(*Msg)) {
	box := m.boxes[rank]
	if msg, ok := box.take(k); ok {
		// Run via the event queue so the caller's context never nests.
		m.Eng.At(m.Eng.Now(), func() { m.handle(rank, msg, fn) })
		return
	}
	box.callbacks = append(box.callbacks, callback{match: k, fn: fn})
}

// SendDataAsync charges a timed transfer of n bytes from rank from to
// dst and returns its arrival time at dst (remote completion). It
// delivers no message and does not block: RDMA-style data movement
// whose control protocol is handled separately, or, with SleepUntil,
// a blocking transfer.
func (m *Machine) SendDataAsync(from, dst, n int, opt XferOpt) sim.Time {
	_, arrive := m.xferCost(m.Eng.Now(), from, dst, n, opt)
	return arrive
}

// xferNics returns the (origin, destination) NIC nodes a transfer
// occupies, or (-1, -1) when it bypasses the links.
func (m *Machine) xferNics(src, dst int, opt XferOpt) (int, int) {
	if opt.NoNIC || m.SameNode(src, dst) {
		return -1, -1
	}
	return m.NodeOf(src), m.NodeOf(dst)
}

// RoundTripTime returns the cost of a minimal control round trip
// between the calling rank and target (two latency-dominated messages),
// without charging it to NIC occupancy.
func (m *Machine) RoundTripTime(src, dst int) sim.Time {
	lat := m.Par.LatencyNs
	if m.SameNode(src, dst) {
		lat = m.Par.LocalLatencyNs
	}
	return sim.FromSeconds(2 * (lat + m.Par.MsgOverhead) / 1e9)
}
