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
	"fmt"

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

// World is the shared state of the data-server ARMCI job.
type World struct {
	M   *fabric.Machine
	Tun *platform.Tuning

	allocs []*allocation
	nextID int

	// serverBusy[node] is the per-node data server's queue horizon —
	// the structural bottleneck.
	serverBusy []sim.Time
	// lastRemote[origin][target] tracks remote completion for Fence.
	lastRemote [][]sim.Time
	mutexes    []*mutexHost

	// Counters.
	Ops        int64
	Requests   int64
	ServerWait sim.Time // aggregate time requests spent queued at servers

	// Obs, when non-nil, receives per-rank request counters, queueing
	// delays, and server-lane trace spans. Nil-safe no-ops when off.
	Obs *obs.Recorder
}

type allocation struct {
	id     int
	group  []int
	rankOf map[int]int
	addrs  []armci.Addr
	sizes  []int
}

// NewWorld creates data-server ARMCI state.
func NewWorld(m *fabric.Machine, tun *platform.Tuning) *World {
	nodes := (m.NRanks + m.Par.CoresPerNode - 1) / m.Par.CoresPerNode
	w := &World{M: m, Tun: tun, serverBusy: make([]sim.Time, nodes)}
	w.lastRemote = make([][]sim.Time, m.NRanks)
	for i := range w.lastRemote {
		w.lastRemote[i] = make([]sim.Time, m.NRanks)
	}
	return w
}

// Runtime is one rank's data-server ARMCI handle.
type Runtime struct {
	w    *World
	coll Collective
	p    *sim.Proc
	dla  map[int64]bool
}

// Collective matches the bootstrap interface of the native runtime.
type Collective interface {
	Barrier()
	AllgatherI64(vals []int64) []int64
	BcastI64(root int, vals []int64) []int64
	GroupComm(members []int, collective bool) interface{}
	GroupAllgatherI64(g interface{}, vals []int64) []int64
	GroupBarrier(g interface{})
	GroupBcastI64(g interface{}, root int, vals []int64) []int64
}

// New creates the per-rank handle.
func New(w *World, coll Collective, p *sim.Proc) *Runtime {
	return &Runtime{w: w, coll: coll, p: p, dla: map[int64]bool{}}
}

var _ armci.Runtime = (*Runtime)(nil)

// Name identifies the implementation.
func (r *Runtime) Name() string { return "armci-ds" }

// Rank returns the calling world rank.
func (r *Runtime) Rank() int { return r.p.ID() }

// Nprocs returns the world size.
func (r *Runtime) Nprocs() int { return r.w.M.NRanks }

// Proc returns the simulation context.
func (r *Runtime) Proc() *sim.Proc { return r.p }

func (r *Runtime) opCost() {
	r.p.Elapse(sim.FromSeconds(r.w.Tun.OpOverheadNs / 1e9))
	r.w.Ops++
}

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
func (r *Runtime) rate() float64 {
	return r.w.M.Par.Bandwidth * r.w.Tun.BandwidthFrac
}

// region resolves an address to its backing region.
func (r *Runtime) region(a armci.Addr, n int) (*fabric.Region, error) {
	reg := r.w.M.Space(a.Rank).Find(a.VA, n)
	if reg == nil {
		return nil, fmt.Errorf("armci-ds: address %v (+%d) not in any allocation", a, n)
	}
	return reg, nil
}

// noteRemote records remote completion for Fence.
func (r *Runtime) noteRemote(target int, at sim.Time) {
	if r.w.lastRemote[r.Rank()][target] < at {
		r.w.lastRemote[r.Rank()][target] = at
	}
}

// putSegs ships segments to the target's data server: one two-sided
// exchange carrying the whole payload, then the server copies each
// segment into place (server-side staging copy).
func (r *Runtime) putSegs(segs []armci.Seg, target int, accumulate bool, scale float64) error {
	if len(segs) == 0 {
		return nil
	}
	r.opCost()
	m := r.w.M
	total := 0
	for _, sg := range segs {
		total += sg.N
	}
	slab := armci.Gather(m, segs, total, scale)
	node := m.NodeOf(target)
	me := r.Rank()
	pr := r.w.Obs.Prof()
	if m.SameNode(r.Rank(), target) && !accumulate {
		// Node-local shared memory: direct copy, no server involved.
		t0c := r.p.Now()
		m.CopyLocal(r.p, total)
		if pr != nil {
			pr.PhaseAt(me, profile.PhaseShmCopy, t0c, r.p.Now())
			pr.Send(me, target, profile.MsgPut, profile.RouteShm, total)
			pr.Recv(me, target, profile.MsgPut, profile.RouteShm, total)
		}
		armci.Scatter(m, segs, slab, false)
		r.noteRemote(target, r.p.Now())
		return nil
	}
	arrive := m.SendDataAsync(r.Rank(), target, total, fabric.XferOpt{Rate: r.rate()})
	class := profile.MsgPut
	if accumulate {
		class = profile.MsgAcc
	}
	if pr != nil {
		base, xs, xa := m.LastXfer()
		pr.PhaseAt(me, profile.PhaseWireQueue, base, xs)
		pr.PhaseAt(me, profile.PhaseWire, xs, xa)
		pr.Send(me, target, class, profile.RouteDS, total)
	}
	procNs := 0.0
	copyBytes := total // staging copy out of the receive buffer
	if accumulate {
		procNs = float64(total) / r.accRate() * 1e9
	}
	start, done := r.w.serve(node, arrive, copyBytes, procNs)
	if pr != nil {
		pr.PhaseAt(me, profile.PhaseTargetQueue, arrive, start)
		pr.PhaseAt(me, profile.PhaseTargetProc, start, done)
	}
	o := r.w.Obs
	o.Inc(r.Rank(), obs.CDsRequests)
	o.AddTime(r.Rank(), obs.TDsWait, start-arrive)
	name := "put"
	if accumulate {
		name = "acc"
	}
	if o.Tracing() {
		o.SpanLane(obs.LaneServer(node), "ds", name, start, done,
			obs.A("origin", r.Rank()), obs.A("bytes", total))
	}
	m.Eng.At(done, func() {
		if pr != nil {
			pr.Recv(me, target, class, profile.RouteDS, total)
		}
		armci.Scatter(m, segs, slab, accumulate)
	})
	r.noteRemote(target, done)
	return nil
}

// getSegs requests segments from the target's data server.
func (r *Runtime) getSegs(segs []armci.Seg, target int) error {
	if len(segs) == 0 {
		return nil
	}
	r.opCost()
	m := r.w.M
	total := 0
	for _, sg := range segs {
		total += sg.N
	}
	pr := r.w.Obs.Prof()
	if m.SameNode(r.Rank(), target) {
		t0c := r.p.Now()
		m.CopyLocal(r.p, total)
		if pr != nil {
			pr.PhaseAt(r.Rank(), profile.PhaseShmCopy, t0c, r.p.Now())
			pr.Send(target, r.Rank(), profile.MsgGet, profile.RouteShm, total)
			pr.Recv(target, r.Rank(), profile.MsgGet, profile.RouteShm, total)
		}
		for _, sg := range segs {
			copy(sg.Dreg.Bytes(sg.DstVA, sg.N), sg.Sreg.Bytes(sg.SrcVA, sg.N))
		}
		return nil
	}
	node := m.NodeOf(target)
	req := m.SendDataAsync(r.Rank(), target, 0, fabric.XferOpt{NoNIC: true})
	// Server gathers the segments (staging copy) and then *sends* them
	// back — unlike an RDMA engine, the two-sided server's CPU is busy
	// for the duration of the response injection too.
	start, served := r.w.serve(node, req, total, float64(total)/r.rate()*1e9)
	if pr != nil {
		pr.PhaseAt(r.Rank(), profile.PhaseTargetQueue, req, start)
		pr.PhaseAt(r.Rank(), profile.PhaseTargetProc, start, served)
	}
	o := r.w.Obs
	o.Inc(r.Rank(), obs.CDsRequests)
	o.AddTime(r.Rank(), obs.TDsWait, start-req)
	if o.Tracing() {
		o.SpanLane(obs.LaneServer(node), "ds", "get", start, served,
			obs.A("origin", r.Rank()), obs.A("bytes", total))
	}
	done := false
	p := r.p
	eng := m.Eng
	me := r.Rank()
	eng.At(served, func() {
		slab := armci.Gather(m, segs, total, 1)
		back := m.SendDataAsync(target, me, total, fabric.XferOpt{Rate: r.rate()})
		if pr != nil {
			base, xs, xa := m.LastXfer()
			pr.PhaseAt(me, profile.PhaseWireQueue, base, xs)
			pr.PhaseAt(me, profile.PhaseWire, xs, xa)
			pr.Send(target, me, profile.MsgGet, profile.RouteDS, total)
		}
		eng.At(back, func() {
			if pr != nil {
				pr.Recv(target, me, profile.MsgGet, profile.RouteDS, total)
			}
			armci.Scatter(m, segs, slab, false)
			done = true
			eng.Unpark(p)
		})
	})
	for !done {
		p.Park("armci-ds.Get")
	}
	return nil
}

func (r *Runtime) accRate() float64 {
	if r.w.Tun.AccumRate > 0 {
		return r.w.Tun.AccumRate
	}
	return r.w.M.Par.AccumRate
}
