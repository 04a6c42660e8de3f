// Package native is the transport that stands in for the vendor-tuned
// native ARMCI implementations the paper compares against
// (ARMCI-Native): the fabric's RDMA primitives driven directly. Its
// structural advantages over ARMCI-MPI mirror the real ones: no lock
// round trips around one-sided operations, pre-pinned allocation pools,
// NIC-side atomics for read-modify-write, and a tuned per-segment
// strided pipeline. Its per-platform quality is set by platform.Tuning
// (e.g. the under-tuned Cray XE6 development port).
//
// The ARMCI surface above it is armci.Direct. As in the paper's
// Figure 1(a), MPI is present alongside native ARMCI: the runtime uses
// an MPI rank handle for process-management collectives (allocation
// exchange, barriers, groups), never for data movement.
package native

import (
	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
)

const (
	// segOverheadNs is the tuned per-segment CPU cost of the native
	// strided pipeline (descriptor chaining on the NIC).
	segOverheadNs = 120
	// amoProcessNs is the NIC-side execution time of an atomic.
	amoProcessNs = 90
)

// World is the shared state of the native ARMCI job: the direct
// runtime's world plus the transport's own clocks.
type World struct {
	*armci.DirectWorld
	Tun *platform.Tuning

	// Per-target serialization point for accumulates and atomics (the
	// communication helper thread / NIC agent).
	agentBusy []sim.Time

	// The records of gets and atomics in flight.
	gets   sim.FreeList[getReq]
	agents sim.FreeList[agentStep]
}

// NewWorld creates native ARMCI state for machine m with tuning tun.
func NewWorld(m *fabric.Machine, tun *platform.Tuning) *World {
	w := &World{Tun: tun, agentBusy: make([]sim.Time, m.NRanks)}
	w.DirectWorld = armci.NewDirectWorld(m, w)
	return w
}

var _ armci.Transport = (*World)(nil)

// Labels names the runtime and its park reasons.
func (w *World) Labels() armci.Labels {
	return armci.Labels{Name: "native", Wait: "native.Wait", Rmw: "native.Rmw", MutexLock: "native.MutexLock"}
}

// OpCost is the native per-operation software overhead, including any
// scale penalty of under-tuned target agents.
func (w *World) OpCost() sim.Time {
	over := w.Tun.OpOverheadNs
	if w.Tun.ScalePenaltyNs > 0 {
		over += w.Tun.ScalePenaltyNs * log2f(w.M.NRanks)
	}
	return sim.FromSeconds(over / 1e9)
}

func log2f(n int) float64 {
	f := 0.0
	for n > 1 {
		f++
		n >>= 1
	}
	return f
}

// AllocDomain places ARMCI memory in ARMCI's pre-pinned pools.
func (w *World) AllocDomain() (fabric.Domain, bool) { return fabric.DomainARMCI, true }

// rate returns the achievable transfer rate for a local buffer: the
// pinned path at the tuned fraction of link bandwidth, or ARMCI's
// pipelined non-pinned path for memory ARMCI has not registered
// (Figure 5's "ARMCI-IB, MPI Touch" curve).
func (w *World) rate(local *fabric.Region) float64 {
	full := w.M.Par.Bandwidth * w.Tun.BandwidthFrac
	if w.M.Par.PinPageNs <= 0 || local.PinnedFor(fabric.DomainARMCI) {
		return full
	}
	return min(w.M.Par.UnpinnedRate, full)
}

// agent reserves the target's helper-thread/NIC agent for busy,
// starting no earlier than from, and returns when it finishes.
func (w *World) agent(target int, from, busy sim.Time) sim.Time {
	done := max(from, w.agentBusy[target]) + busy
	w.agentBusy[target] = done
	return done
}

// segCost charges the per-segment descriptor cost of a noncontiguous
// transfer.
func segCost(p *sim.Proc, x armci.Xfer) {
	if !x.Contig() {
		p.Elapse(sim.FromSeconds(float64(len(x.Segs)) * segOverheadNs / 1e9))
	}
}

// Put is the tuned native put/accumulate pipeline: per-segment
// descriptor cost, a single pipelined NIC occupancy for the full
// payload and, for an accumulate, the target agent applying the
// reduction serially after arrival.
func (w *World) Put(p *sim.Proc, x armci.Xfer) sim.Time {
	segCost(p, x)
	m := w.M
	done := m.SendDataAsync(p.ID(), x.Target, x.Total, fabric.XferOpt{Rate: w.rate(x.Local)})
	if x.Accumulate {
		accRate := m.Par.AccumRate
		if w.Tun.AccumRate > 0 {
			accRate = w.Tun.AccumRate
		}
		done = w.agent(x.Target, done, sim.FromSeconds(float64(x.Total)/accRate))
	}
	return done
}

// Get is the native get pipeline: a request, then the payload straight
// back from the target's memory, whose arrival completes the handle.
func (w *World) Get(p *sim.Proc, x armci.Xfer, h *armci.Pending) {
	segCost(p, x)
	m, me := w.M, p.ID()
	g := w.gets.Get()
	*g = getReq{w: w, me: me, target: x.Target, total: x.Total, rate: w.rate(x.Local), h: h}
	m.Eng.AtEvent(m.SendDataAsync(me, x.Target, 0, fabric.XferOpt{NoNIC: true}), g)
}

// getReq is one get in flight, as the two events it is scheduled as:
// the request reaching the target, which sends the payload back, and
// the payload's arrival, which files the record and fires the handle.
type getReq struct {
	w                 *World
	me, target, total int
	rate              float64
	h                 *armci.Pending
	replied           bool
}

func (g *getReq) Fire() {
	m := g.w.M
	if !g.replied {
		g.replied = true
		m.Eng.AtEvent(m.SendDataAsync(g.target, g.me, g.total, fabric.XferOpt{Rate: g.rate}), g)
		return
	}
	h := g.h
	g.w.gets.Put(g)
	h.Fire()
}

// Serve evaluates a request inside its arrival event: a control message
// at once, an atomic after the NIC agent has executed it.
func (w *World) Serve(origin, target int, arrive sim.Time, amoBytes int, ev sim.Event) {
	eng := w.M.Eng
	if amoBytes == 0 {
		eng.AtEvent(arrive, ev)
		return
	}
	a := w.agents.Get()
	*a = agentStep{w: w, target: target, ev: ev}
	eng.AtEvent(arrive, a)
}

// agentStep is an atomic reaching its target: it books the NIC agent,
// and ev fires when the agent has executed the atomic.
type agentStep struct {
	w      *World
	target int
	ev     sim.Event
}

func (a *agentStep) Fire() {
	w, target, ev := a.w, a.target, a.ev
	w.agents.Put(a)
	eng := w.M.Eng
	eng.AtEvent(w.agent(target, eng.Now(), amoProcessNs), ev)
}
