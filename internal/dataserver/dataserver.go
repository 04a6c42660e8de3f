// Package dataserver implements ARMCI on MPI *two-sided* messaging —
// the prior approach the paper's Related Work (SectionIX) contrasts
// with ARMCI-MPI: "a data server process on each node ... maps shared
// memory that is shared with all processes on the node and services
// requests to read from and write to this data. However, this approach
// does not utilize MPI's one-sided functionality and has several
// overheads, including consumption of a core, bottlenecking on the
// data server, and two-sided messaging overheads such as tag matching."
//
// The model captures those three structural overheads:
//
//   - every remote access is a request/response exchange serviced by a
//     single serial agent per node (the data server), so concurrent
//     accesses to one node queue behind each other;
//   - the server stages data through its own memory (an extra copy at
//     the node's copy rate in each direction);
//   - each message pays a two-sided software overhead (tag matching,
//     envelope processing) on top of the fabric's per-message cost;
//   - the server consumes a core: the harness reduces the per-rank
//     compute rate by 1/cores-per-node when this backend is selected.
//
// Intra-node accesses go straight to shared memory, as the real
// implementation's node-local mapping allows.
package dataserver

import (
	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/platform"
	"repro/internal/sim"
)

// tagMatchNs is the two-sided software overhead per message at the
// server (tag matching, envelope processing).
const tagMatchNs = 450

// World is the shared state of the data-server ARMCI job: the direct
// runtime's world (the ARMCI surface is armci.Direct) plus the servers'
// queues. Its Obs recorder, when non-nil, also receives per-rank
// request counters, queueing delays, and server-lane trace spans.
type World struct {
	*armci.DirectWorld
	Tun *platform.Tuning

	// serverBusy[node] is the per-node data server's queue horizon —
	// the structural bottleneck.
	serverBusy []sim.Time

	// Counters.
	Requests   int64
	ServerWait sim.Time // aggregate time requests spent queued at servers

	// The records of gets and reported requests in flight.
	gets   sim.FreeList[getReq]
	landed sim.FreeList[landedReq]
}

// NewWorld creates data-server ARMCI state.
func NewWorld(m *fabric.Machine, tun *platform.Tuning) *World {
	nodes := (m.NRanks + m.Par.CoresPerNode - 1) / m.Par.CoresPerNode
	w := &World{Tun: tun, serverBusy: make([]sim.Time, nodes)}
	w.DirectWorld = armci.NewDirectWorld(m, w)
	return w
}

var _ armci.Transport = (*World)(nil)

// Labels names the runtime and its park reasons. A get parks under its
// own name: the two-sided protocol completes it before returning.
func (w *World) Labels() armci.Labels {
	return armci.Labels{Name: "armci-ds", Wait: "armci-ds.Get", Rmw: "armci-ds.Rmw", MutexLock: "armci-ds.MutexLock"}
}

// OpCost is the per-operation software overhead at the origin.
func (w *World) OpCost() sim.Time { return sim.FromSeconds(w.Tun.OpOverheadNs / 1e9) }

// AllocDomain leaves ARMCI memory unregistered: the server maps it into
// node-shared space, and the data server, not the NIC, serves it.
func (w *World) AllocDomain() (fabric.Domain, bool) { return fabric.DomainNone, false }

// serve schedules one request at the target node's data server: the
// server becomes available at max(arrive, busy), spends procNs plus
// copyBytes at the node's copy rate, and the completion time is
// returned. Accounts the structural queueing delay.
func (w *World) serve(node int, arrive sim.Time, copyBytes int, procNs float64) (start, done sim.Time) {
	start = arrive
	if w.serverBusy[node] > start {
		w.ServerWait += w.serverBusy[node] - start
		start = w.serverBusy[node]
	}
	busy := sim.FromSeconds((tagMatchNs+procNs)/1e9) + w.M.CopyTime(copyBytes)
	done = start + busy
	w.serverBusy[node] = done
	w.Requests++
	return start, done
}

// rate is the two-sided path's achievable link fraction.
func (w *World) rate() float64 { return w.M.Par.Bandwidth * w.Tun.BandwidthFrac }

// served reports one data request's reservation (serve) of target's
// server on origin's behalf.
func (w *World) served(origin, target int, class profile.MsgClass, bytes int, arrive, start, done sim.Time) {
	w.Obs.Booked(obs.Booking{Rank: origin, At: arrive, Start: start, Done: done,
		Lane: obs.LaneServer(w.M.NodeOf(target)), Class: class, Bytes: bytes})
}

// shm performs the node-local leg of a transfer between ranks sharing
// memory: one copy at the node's rate, no server involved, sent and
// landed at once.
func (w *World) shm(p *sim.Proc, from, to int, class profile.MsgClass, bytes int) {
	t0 := p.Now()
	w.M.CopyLocal(p, bytes)
	w.Obs.Waited(obs.Wait{Kind: obs.WaitShmCopy, Rank: p.ID(), From: t0, To: p.Now()})
	w.Obs.Sent(from, to, class, profile.RouteShm, bytes)
	w.Obs.Landed(from, to, class, profile.RouteShm, bytes)
}

// Put ships the segments to the target's data server: one two-sided
// exchange carrying the whole payload — the server unpacks a strided or
// IOV descriptor itself, which is this design's noncontiguous
// advantage — then the server copies each segment into place
// (server-side staging copy).
func (w *World) Put(p *sim.Proc, x armci.Xfer) sim.Time {
	m, me, target, total := w.M, p.ID(), x.Target, x.Total
	if m.SameNode(me, target) && !x.Accumulate {
		// Node-local shared memory: direct copy.
		w.shm(p, me, target, profile.MsgPut, total)
		return p.Now()
	}
	arrive := m.SendDataAsync(me, target, total, fabric.XferOpt{Rate: w.rate()})
	class, procNs := profile.MsgPut, 0.0
	if x.Accumulate {
		accRate := m.Par.AccumRate
		if w.Tun.AccumRate > 0 {
			accRate = w.Tun.AccumRate
		}
		class, procNs = profile.MsgAcc, float64(total)/accRate*1e9
	}
	w.Obs.Wire(me, me, target, class, profile.RouteDS, total)
	// The staging copy out of the receive buffer covers the payload.
	start, done := w.serve(m.NodeOf(target), arrive, total, procNs)
	w.served(me, target, class, total, arrive, start, done)
	if w.Obs != nil {
		m.Eng.At(done, func() { w.Obs.Landed(me, target, class, profile.RouteDS, total) })
	}
	return done
}

// Get requests the segments from the target's data server and waits
// for them.
func (w *World) Get(p *sim.Proc, x armci.Xfer, h *armci.Pending) {
	m, me, target, total := w.M, p.ID(), x.Target, x.Total
	if m.SameNode(me, target) {
		w.shm(p, target, me, profile.MsgGet, total)
		h.Fire()
		return
	}
	req := m.SendDataAsync(me, target, 0, fabric.XferOpt{NoNIC: true})
	// Server gathers the segments (staging copy) and then *sends* them
	// back — unlike an RDMA engine, the two-sided server's CPU is busy
	// for the duration of the response injection too.
	start, served := w.serve(m.NodeOf(target), req, total, float64(total)/w.rate()*1e9)
	w.served(me, target, profile.MsgGet, total, req, start, served)
	g := w.gets.Get()
	*g = getReq{w: w, me: me, target: target, total: total, h: h}
	m.Eng.AtEvent(served, g)
	h.Wait()
}

// getReq is one remote get in flight, as the two events it is
// scheduled as: the server done gathering, which sends the reply, and
// the reply's arrival, which files the record and fires the handle.
type getReq struct {
	w                 *World
	me, target, total int
	h                 *armci.Pending
	replied           bool
}

func (g *getReq) Fire() {
	w, m := g.w, g.w.M
	if !g.replied {
		g.replied = true
		back := m.SendDataAsync(g.target, g.me, g.total, fabric.XferOpt{Rate: w.rate()})
		w.Obs.Wire(g.me, g.target, g.me, profile.MsgGet, profile.RouteDS, g.total)
		m.Eng.AtEvent(back, g)
		return
	}
	w.Obs.Landed(g.target, g.me, profile.MsgGet, profile.RouteDS, g.total)
	h := g.h
	w.gets.Put(g)
	h.Fire()
}

// Serve queues a control or atomic request at the target's data server,
// reserved when the request is issued; the server itself is the arbiter
// (and so trivially serializes atomics).
func (w *World) Serve(origin, target int, arrive sim.Time, amoBytes int, ev sim.Event) {
	start, served := w.serve(w.M.NodeOf(target), arrive, amoBytes, 0)
	if o := w.Obs; o != nil && amoBytes > 0 {
		o.Booked(obs.Booking{Rank: origin, At: arrive, Start: start, Done: served})
		o.Sent(origin, target, profile.MsgAmo, profile.RouteDS, amoBytes)
		l := w.landed.Get()
		*l = landedReq{w: w, origin: origin, target: target, bytes: amoBytes, ev: ev}
		ev = l
	}
	w.M.Eng.AtEvent(served, ev)
}

// landedReq is a served atomic as a recorder sees it: it reports the
// landing, then fires the request.
type landedReq struct {
	w                     *World
	origin, target, bytes int
	ev                    sim.Event
}

func (l *landedReq) Fire() {
	w, ev := l.w, l.ev
	w.Obs.Landed(l.origin, l.target, profile.MsgAmo, profile.RouteDS, l.bytes)
	w.landed.Put(l)
	ev.Fire()
}
