package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Msg is a message delivered into a rank's mailbox. Kind and Tag are
// interpreted by the layer that sent the message (the fabric itself
// attaches no meaning). Payload carries protocol state by reference —
// the simulation does not serialize it; Size alone determines cost.
type Msg struct {
	From    int
	Kind    int
	Tag     int
	Size    int
	Payload interface{}
	Arrived sim.Time

	// chain is the message's dependence edge (zero when observability
	// is off): set at the send site, it names the delivery as the wake
	// cause of whoever it releases.
	chain obs.Ref
}

// mailbox holds delivered-but-unreceived messages and the set of
// waiters parked on a match.
type mailbox struct {
	owner   int // rank this mailbox belongs to
	queue   []*Msg
	waiters []*waiter
}

type waiter struct {
	p     *sim.Proc
	match func(*Msg) bool
	got   *Msg
	fn    func(*Msg) // callback waiter: runs in event context instead of unparking
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
	box := m.boxes[dst]
	m.Eng.At(arrive, func() {
		msg.Arrived = arrive
		box.queue = append(box.queue, msg)
		m.matchWaiters(box)
	})
	return arrive
}

// handle runs a message's event-context handler on rank under the
// message's provenance: whatever the handler sends or wakes is chained
// to the delivery that triggered it.
func (m *Machine) handle(rank int, msg *Msg, fn func(*Msg)) {
	prev := m.Obs.Enter(rank, msg.chain)
	fn(msg)
	m.Obs.Leave(rank, prev)
}

// matchWaiters wakes every parked waiter whose predicate now matches a
// queued message, consuming matched messages in FIFO order. Callback
// waiters run inline (event context, see handle); proc waiters have the
// message named as their wake cause, then are unparked.
func (m *Machine) matchWaiters(box *mailbox) {
	for i := 0; i < len(box.waiters); {
		w := box.waiters[i]
		if idx := box.findLocked(w.match); idx >= 0 {
			w.got = box.queue[idx]
			box.queue = append(box.queue[:idx], box.queue[idx+1:]...)
			box.waiters = append(box.waiters[:i], box.waiters[i+1:]...)
			if w.fn != nil {
				m.handle(box.owner, w.got, w.fn)
			} else {
				m.Obs.WakeCause(w.p.ID(), w.got.chain)
				m.Eng.Unpark(w.p)
			}
			continue
		}
		i++
	}
}

func (b *mailbox) findLocked(match func(*Msg) bool) int {
	for i, msg := range b.queue {
		if match(msg) {
			return i
		}
	}
	return -1
}

// Recv blocks the calling rank until a message matching the predicate
// is available in its mailbox and returns it. Messages are matched in
// arrival order.
func (m *Machine) Recv(p *sim.Proc, match func(*Msg) bool) *Msg {
	box := m.boxes[p.ID()]
	if idx := box.findLocked(match); idx >= 0 {
		msg := box.queue[idx]
		box.queue = append(box.queue[:idx], box.queue[idx+1:]...)
		return msg
	}
	w := &waiter{p: p, match: match}
	box.waiters = append(box.waiters, w)
	p.Park("fabric.Recv")
	return w.got
}

// OnRecv registers a one-shot callback on a rank's mailbox: when a
// matching message arrives (or is already queued), it is consumed and
// fn runs in event context. Used for event-driven protocols (e.g. the
// MPI rendezvous sender) that must progress while the owning rank is
// busy or parked elsewhere.
func (m *Machine) OnRecv(rank int, match func(*Msg) bool, fn func(*Msg)) {
	box := m.boxes[rank]
	if idx := box.findLocked(match); idx >= 0 {
		msg := box.queue[idx]
		box.queue = append(box.queue[:idx], box.queue[idx+1:]...)
		// Run via the event queue so the caller's context never nests.
		m.Eng.At(m.Eng.Now(), func() { m.handle(rank, msg, fn) })
		return
	}
	box.waiters = append(box.waiters, &waiter{match: match, fn: fn})
}

// TryRecv returns a matching message if one is already queued, without
// blocking. The second result reports whether a message was consumed.
func (m *Machine) TryRecv(p *sim.Proc, match func(*Msg) bool) (*Msg, bool) {
	box := m.boxes[p.ID()]
	if idx := box.findLocked(match); idx >= 0 {
		msg := box.queue[idx]
		box.queue = append(box.queue[:idx], box.queue[idx+1:]...)
		return msg, true
	}
	return nil, false
}

// Pending reports the number of undelivered messages queued at a rank.
func (m *Machine) Pending(rank int) int { return len(m.boxes[rank].queue) }

// SendData performs a blocking timed transfer of n bytes from the
// calling rank to dst and parks the caller until the data has fully
// arrived at dst (remote completion). It delivers no message; it only
// charges time. Used for RDMA-style data movement where the control
// protocol is handled separately.
func (m *Machine) SendData(p *sim.Proc, dst, n int, opt XferOpt) {
	_, arrive := m.xferCost(p.Now(), p.ID(), dst, n, opt)
	m.SleepUntil(p, arrive)
}

// SendDataAsync is SendData without blocking: it charges the transfer
// and returns its arrival time.
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
