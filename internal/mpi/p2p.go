package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Status describes a completed receive.
type Status struct {
	Source int // rank in the receiving communicator
	Tag    int
	Size   int
}

// Point-to-point messages match by header (fabric.Match): Kind, Ctx
// and Tag. An eager body or a request-to-send carries its
// communicator's context id in Ctx and the user tag in Tag; the
// clear-to-send and the rendezvous body carry the transfer's rendezvous
// id in Ctx.

// rtsPayload announces a rendezvous send (request-to-send).
type rtsPayload struct {
	src  int // the sender's communicator rank
	rvID int
	size int
}

// rvDataPayload carries the rendezvous body.
type rvDataPayload struct {
	data []byte
}

// rvState is the sender-side state of one rendezvous transfer.
type rvState struct {
	done   bool
	waiter *sim.Proc
}

// Send transmits data to rank `to` of the communicator with the given
// tag. Messages up to the world's eager limit are buffered (the call
// returns once the message is handed to the NIC; data is copied).
// Larger messages use the rendezvous protocol: a request-to-send, the
// receiver's clear-to-send once a matching receive is posted, then the
// body — the blocking call returns when the body has been handed off.
func (c *Comm) Send(to, tag int, data []byte) {
	if to < 0 || to >= c.Size() {
		panic(fmt.Sprintf("mpi: Send to bad rank %d of comm size %d", to, c.Size()))
	}
	if tag < 0 {
		panic("mpi: Send with negative tag")
	}
	c.r.opOverhead()
	if len(data) <= c.r.W.EagerLimit {
		c.sendEager(to, tag, data)
		return
	}
	st := c.sendRendezvous(to, tag, data)
	// Blocking semantics: wait for local completion (body handed off).
	for !st.done {
		st.waiter = c.r.P
		c.r.P.Park("mpi.SendRendezvous")
	}
}

// eagerMsg is an eager message and its payload in one record — it is
// its own Payload — that the receive which consumes it hands back to
// the world's free list: eager sends (every metadata collective is made
// of them) are the most numerous records a job has, and a warm one
// allocates nothing. Between send and receive the record is the
// fabric's (in flight, then queued); after the receive has read it,
// nothing holds it.
type eagerMsg struct {
	msg  fabric.Msg
	src  int // the sender's communicator rank, the receive's Status.Source
	data []byte
}

func (c *Comm) sendEager(to, tag int, data []byte) {
	w := c.r.W
	em := w.eager.Get()
	*em = eagerMsg{
		msg:  fabric.Msg{From: c.r.ID(), Kind: kindP2P, Ctx: c.cid, Tag: tag, Size: len(data)},
		src:  c.rank,
		data: c.snapshot(data),
	}
	em.msg.Payload = em
	w.M.Deliver(c.group[to], &em.msg, fabric.XferOpt{})
}

// consume reads a received eager message and recycles its record.
func (c *Comm) consume(em *eagerMsg) ([]byte, Status) {
	data, st := em.data, Status{Source: em.src, Tag: em.msg.Tag, Size: em.msg.Size}
	c.r.W.eager.Put(em)
	return data, st
}

// sendRendezvous starts the event-driven rendezvous state machine and
// returns its state; completion is independent of the calling rank's
// control flow, so symmetric exchanges (everyone sending large
// messages at once) cannot deadlock.
func (c *Comm) sendRendezvous(to, tag int, data []byte) *rvState {
	w := c.r.W
	m := w.M
	me := c.r.ID()
	dest := c.group[to]
	body := c.snapshot(data)
	w.rvSeq++
	rvID := w.rvSeq
	st := &rvState{}
	// Request to send (control message).
	m.Deliver(dest, &fabric.Msg{
		From: me, Kind: kindRendezvousRTS, Ctx: c.cid, Tag: tag, Size: 0,
		Payload: &rtsPayload{src: c.rank, rvID: rvID, size: len(body)},
	}, fabric.XferOpt{NoNIC: true})
	// When the clear-to-send arrives, ship the body (event context).
	cts := fabric.Match{Kinds: 1 << kindRendezvousCTS, Ctx: rvID, From: fabric.Any, Tag: fabric.Any}
	m.OnRecv(me, cts, func(*fabric.Msg) {
		m.Deliver(dest, &fabric.Msg{
			From: me, Kind: kindRendezvousData, Ctx: rvID, Tag: tag, Size: len(body),
			Payload: &rvDataPayload{data: body},
		}, fabric.XferOpt{})
		st.done = true
		if st.waiter != nil {
			// The blocked sender is released by the clear-to-send whose
			// handler this is: its delivery edge is the wake cause.
			m.Obs.WakeAmbient(st.waiter.ID())
			m.Eng.Unpark(st.waiter)
			st.waiter = nil
		}
	})
	return st
}

// snapshot copies a send buffer into a pooled message body. The body
// belongs to whoever receives it: the typed collectives hand it back
// once decoded, a raw Recv passes it to the caller for good.
func (c *Comm) snapshot(data []byte) []byte {
	body := c.r.W.M.GetBuf(len(data))
	copy(body, data)
	return body
}

// match is the receive selector for (src, tag) on this communicator,
// with wildcard support: eager bodies and rendezvous announcements. src
// is a communicator rank or AnySource.
func (c *Comm) match(src, tag int) fabric.Match {
	k := fabric.Match{Kinds: 1<<kindP2P | 1<<kindRendezvousRTS, Ctx: c.cid, From: fabric.Any, Tag: tag}
	if src != AnySource {
		if src < 0 || src >= c.Size() {
			panic(fmt.Sprintf("mpi: Recv from bad rank %d of comm size %d", src, c.Size()))
		}
		k.From = c.group[src]
	}
	if tag == AnyTag {
		k.Tag = fabric.Any
	}
	return k
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag) arrives on this communicator, and returns its payload. A
// matched rendezvous announcement triggers the clear-to-send and waits
// for the body.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	c.r.opOverhead()
	m := c.r.W.M.Recv(c.r.P, c.match(src, tag))
	switch pl := m.Payload.(type) {
	case *eagerMsg:
		return c.consume(pl)
	case *rtsPayload:
		return c.completeRendezvous(m, pl)
	default:
		panic("mpi: Recv matched an unexpected payload")
	}
}

// completeRendezvous answers an RTS with a CTS and receives the body.
func (c *Comm) completeRendezvous(rts *fabric.Msg, pl *rtsPayload) ([]byte, Status) {
	machine := c.r.W.M
	machine.Deliver(rts.From, &fabric.Msg{
		From: c.r.ID(), Kind: kindRendezvousCTS, Ctx: pl.rvID, Size: 0,
	}, fabric.XferOpt{NoNIC: true})
	data := machine.Recv(c.r.P, fabric.Match{Kinds: 1 << kindRendezvousData, Ctx: pl.rvID, From: fabric.Any, Tag: fabric.Any})
	dp := data.Payload.(*rvDataPayload)
	return dp.data, Status{Source: pl.src, Tag: data.Tag, Size: data.Size}
}

// Sendrecv performs a combined send and receive, safe against cyclic
// patterns: the send's completion is event-driven, so posting the
// receive below lets a symmetric large-message exchange progress.
func (c *Comm) Sendrecv(to, sendTag int, data []byte, from, recvTag int) ([]byte, Status) {
	c.r.opOverhead()
	var st *rvState
	if len(data) <= c.r.W.EagerLimit {
		c.sendEager(to, sendTag, data)
	} else {
		st = c.sendRendezvous(to, sendTag, data)
	}
	out, status := c.Recv(from, recvTag)
	if st != nil {
		for !st.done {
			st.waiter = c.r.P
			c.r.P.Park("mpi.SendrecvFlush")
		}
	}
	return out, status
}

// rankOfWorld translates a world rank into this communicator's rank,
// or -1 when the rank is not a member.
func (c *Comm) rankOfWorld(world int) int {
	for i, g := range c.group {
		if g == world {
			return i
		}
	}
	return -1
}
