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

// p2pPayload carries a point-to-point message body plus its matching
// context id.
type p2pPayload struct {
	cid  int
	data []byte
}

// rtsPayload announces a rendezvous send (request-to-send).
type rtsPayload struct {
	cid  int
	rvID int
	size int
}

// ctsPayload grants a rendezvous send (clear-to-send).
type ctsPayload struct{ rvID int }

// rvDataPayload carries the rendezvous body.
type rvDataPayload struct {
	cid  int
	rvID int
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

// eagerMsg is an eager message and its payload in one allocation: the
// two live and die together, and eager sends (every metadata
// collective is made of them) are the most numerous objects a job
// allocates.
type eagerMsg struct {
	msg fabric.Msg
	pl  p2pPayload
}

func (c *Comm) sendEager(to, tag int, data []byte) {
	em := &eagerMsg{
		msg: fabric.Msg{From: c.r.ID(), Kind: kindP2P, Tag: tag, Size: len(data)},
		pl:  p2pPayload{cid: c.cid, data: c.snapshot(data)},
	}
	em.msg.Payload = &em.pl
	c.r.W.M.Deliver(c.group[to], &em.msg, fabric.XferOpt{})
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
		From: me, Kind: kindRendezvousRTS, Tag: tag, Size: 0,
		Payload: &rtsPayload{cid: c.cid, rvID: rvID, size: len(body)},
	}, fabric.XferOpt{NoNIC: true})
	// When the clear-to-send arrives, ship the body (event context).
	m.OnRecv(me, func(msg *fabric.Msg) bool {
		pl, ok := msg.Payload.(*ctsPayload)
		return ok && msg.Kind == kindRendezvousCTS && pl.rvID == rvID
	}, func(*fabric.Msg) {
		m.Deliver(dest, &fabric.Msg{
			From: me, Kind: kindRendezvousData, Tag: tag, Size: len(body),
			Payload: &rvDataPayload{cid: c.cid, rvID: rvID, data: body},
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

// match builds a predicate for (cid, src, tag) with wildcard support;
// it matches eager bodies and, when includeRTS is set, rendezvous
// announcements. src is a communicator rank or AnySource.
func (c *Comm) match(src, tag int, includeRTS bool) func(*fabric.Msg) bool {
	var worldSrc int
	if src != AnySource {
		if src < 0 || src >= c.Size() {
			panic(fmt.Sprintf("mpi: Recv from bad rank %d of comm size %d", src, c.Size()))
		}
		worldSrc = c.group[src]
	}
	return func(m *fabric.Msg) bool {
		var cid int
		switch pl := m.Payload.(type) {
		case *p2pPayload:
			if m.Kind != kindP2P {
				return false
			}
			cid = pl.cid
		case *rtsPayload:
			if !includeRTS {
				return false
			}
			cid = pl.cid
		default:
			return false
		}
		if cid != c.cid {
			return false
		}
		if src != AnySource && m.From != worldSrc {
			return false
		}
		if tag != AnyTag && m.Tag != tag {
			return false
		}
		return true
	}
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag) arrives on this communicator, and returns its payload. A
// matched rendezvous announcement triggers the clear-to-send and waits
// for the body.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	c.r.opOverhead()
	m := c.r.W.M.Recv(c.r.P, c.match(src, tag, true))
	switch pl := m.Payload.(type) {
	case *p2pPayload:
		return pl.data, Status{Source: c.rankOfWorld(m.From), Tag: m.Tag, Size: m.Size}
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
		From: c.r.ID(), Kind: kindRendezvousCTS, Size: 0,
		Payload: &ctsPayload{rvID: pl.rvID},
	}, fabric.XferOpt{NoNIC: true})
	data := machine.Recv(c.r.P, func(m *fabric.Msg) bool {
		dp, ok := m.Payload.(*rvDataPayload)
		return ok && m.Kind == kindRendezvousData && dp.rvID == pl.rvID
	})
	dp := data.Payload.(*rvDataPayload)
	return dp.data, Status{Source: c.rankOfWorld(data.From), Tag: data.Tag, Size: data.Size}
}

// TryRecv receives a matching *eager* message if one is already
// queued. Rendezvous transfers require the blocking Recv (or a Wait on
// an Irecv request), since completing one entails a handshake.
func (c *Comm) TryRecv(src, tag int) ([]byte, Status, bool) {
	m, ok := c.r.W.M.TryRecv(c.r.P, c.match(src, tag, false))
	if !ok {
		return nil, Status{}, false
	}
	pl := m.Payload.(*p2pPayload)
	return pl.data, Status{Source: c.rankOfWorld(m.From), Tag: m.Tag, Size: m.Size}, true
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

// Request is a handle for a nonblocking receive; sends complete
// immediately under the buffered-eager model.
type Request struct {
	c    *Comm
	src  int
	tag  int
	done bool
	data []byte
	st   Status
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{c: c, src: src, tag: tag}
}

// Isend starts a buffered send; the returned request is already
// complete (local completion for an eager send).
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	c.Send(to, tag, data)
	return &Request{c: c, done: true}
}

// Test polls for completion without blocking.
func (r *Request) Test() bool {
	if r.done {
		return true
	}
	if data, st, ok := r.c.TryRecv(r.src, r.tag); ok {
		r.data, r.st, r.done = data, st, true
	}
	return r.done
}

// Wait blocks until the request completes and returns the received
// payload (nil for send requests).
func (r *Request) Wait() ([]byte, Status) {
	if !r.done {
		r.data, r.st = r.c.Recv(r.src, r.tag)
		r.done = true
	}
	return r.data, r.st
}

// WaitAll completes a set of requests.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
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
