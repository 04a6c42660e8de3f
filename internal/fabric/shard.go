package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the fabric's side of multi-shard execution: the lookahead
// bound, the node-aligned rank partitioner, and a delivery path whose
// every state touch is confined to the shard that owns it.
//
// The regular Deliver/SendData paths mutate machine-global state
// synchronously at the origin — both endpoints' NIC clocks, the shared
// MsgsSent/BytesSent counters — which is why the full communication
// stacks run on one shard.
// DeliverSharded splits the cost model at the wire: origin-side
// overhead and source-NIC occupancy are charged on the sending shard,
// the flight is a cross-shard event (arriving at least
// MinCrossNodeLatency after the send decision, which is exactly the
// engine's Lookahead bound), and destination-NIC arbitration plus the
// mailbox insertion run on the receiving shard at arrival. Under a
// node-aligned partition every NIC, mailbox, and per-rank counter is
// then touched by exactly one shard.

// MinCrossNodeLatency is the smallest virtual delay between a
// cross-node send decision and its earliest observable effect at the
// destination: per-message origin overhead plus one-way wire latency
// (queueing and serialization only add to it). It is computed as the
// sum of the same rounded terms the delivery paths charge, so it is a
// true lower bound on every cross-node arrival — the lookahead a
// parallel engine partitioned on node boundaries can safely use.
func (p *Params) MinCrossNodeLatency() sim.Time {
	return sim.FromSeconds(p.MsgOverhead/1e9) + sim.FromSeconds(p.LatencyNs/1e9)
}

// MinCrossNodeLatency returns the machine's lookahead bound.
func (m *Machine) MinCrossNodeLatency() sim.Time { return m.Par.MinCrossNodeLatency() }

// NodeAlignedPartition maps nranks ranks onto at most shards shards
// without ever splitting a node across two shards, so the shm fast
// path, node windows, NICs, and mailboxes of one node always live on
// one shard. Nodes are dealt into contiguous, balanced groups. It
// returns the rank->shard map and the effective shard count (clamped
// to the node count).
func NodeAlignedPartition(par Params, nranks, shards int) ([]int, int) {
	nodes := (nranks + par.CoresPerNode - 1) / par.CoresPerNode
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	part := make([]int, nranks)
	for r := range part {
		node := r / par.CoresPerNode
		part[r] = node * shards / nodes
	}
	return part, shards
}

// ShardedTraffic sums the per-rank injection counters maintained by
// DeliverSharded. Safe once Run has returned (or between windows).
func (m *Machine) ShardedTraffic() (msgs, bytes int64) {
	for _, v := range m.sendMsgs {
		msgs += v
	}
	for _, v := range m.sendBytes {
		bytes += v
	}
	return msgs, bytes
}

// DeliverSharded moves msg from the calling rank to dst under the
// shard-confined cost model and returns the wire arrival time (the
// instant destination-side processing begins; NIC arbitration at the
// receiver may land the message in the mailbox slightly later). The
// caller must be msg.From's flow of control. Unlike Deliver it never
// touches destination-shard state at the origin: intra-node delivery
// stays on the shared shard, and cross-node delivery charges the
// source NIC now, flies as a cross-shard event, and arbitrates the
// destination NIC on arrival. The machine-global counters are not used
// — per-rank counters (ShardedTraffic) replace them, because shards
// would race on anything global — and of the obs events only the
// message edges are emitted: each names a rank, so the recorder files
// it in the buffer of that rank's shard.
func (m *Machine) DeliverSharded(p *sim.Proc, dst int, msg *Msg, opt XferOpt) sim.Time {
	if dst < 0 || dst >= m.NRanks {
		panic(fmt.Sprintf("fabric: DeliverSharded to bad rank %d", dst))
	}
	src := p.ID()
	now := p.Now()
	n := msg.Size
	m.sendMsgs[src]++
	m.sendBytes[src] += int64(n)
	par := &m.Par
	msg.box = m.boxes[dst]
	if m.SameNode(src, dst) {
		rate := opt.Rate
		if rate == 0 {
			rate = par.LocalBandwidth
		}
		dur := par.LocalLatencyNs + opt.Overhead + float64(n)/rate*1e9
		arrive := now + sim.FromSeconds(dur/1e9)
		if arrive <= now {
			arrive = now + 1
		}
		msg.chain = m.Obs.MsgHop(src, now, now, arrive, -1, -1)
		msg.Arrived = arrive
		m.Eng.AtRankEvent(arrive, src, dst, (*landing)(msg))
		return arrive
	}
	rate := opt.Rate
	if rate == 0 {
		rate = par.Bandwidth
	}
	start := now + sim.FromSeconds((par.MsgOverhead+opt.Overhead)/1e9)
	occupy := sim.FromSeconds(float64(n) / rate)
	if !opt.NoNIC {
		s := &m.nics[m.NodeOf(src)]
		if s.freeAt > start {
			start = s.freeAt
		}
		s.freeAt = start + occupy
	}
	arrive := start + occupy + sim.FromSeconds(par.LatencyNs/1e9)
	if m.Obs != nil {
		nicS, nicD := m.xferNics(src, dst, opt)
		msg.chain = m.Obs.MsgHop(src, now, start, arrive, nicS, nicD)
	}
	msg.Arrived = arrive
	if opt.NoNIC {
		m.Eng.AtRankEvent(arrive, src, dst, (*landing)(msg))
	} else {
		msg.occupy = occupy
		m.Eng.AtRankEvent(arrive, src, dst, (*arbitration)(msg))
	}
	return arrive
}

// arbitration is a cross-node message reaching the destination NIC: it
// lands now if the NIC is free, else at the end of the NIC's current
// occupancy.
type arbitration Msg

func (a *arbitration) Fire() {
	msg := (*Msg)(a)
	m, dst := msg.box.m, msg.box.owner
	arrive := msg.Arrived
	land := arrive
	d := &m.nics[m.NodeOf(dst)]
	if d.freeAt > land {
		land = d.freeAt
	}
	d.freeAt = land + msg.occupy
	if land > arrive {
		// The edge extension is recorded against dst, so in the
		// destination shard's buffer (this event runs there); the origin
		// shard's hop table is never touched after the send.
		if m.Obs != nil {
			msg.chain = m.Obs.ArbHop(dst, msg.From, arrive, land, m.NodeOf(dst), msg.chain)
		}
		msg.Arrived = land
		m.Eng.AtRankEvent(land, dst, dst, (*landing)(msg))
		return
	}
	msg.box.land(msg)
}
