// Package fabric models a distributed-memory parallel machine on top of
// the sim engine: nodes with multiple cores, per-node NICs with link
// occupancy, latency/bandwidth message delivery, per-rank mailboxes,
// per-rank virtual address spaces, and a memory registration (pinning)
// model with pre-pinned and on-demand paths.
//
// The fabric is mechanism only: it charges virtual time for data
// movement, computation, and registration. Policy (protocols, when to
// pin, how to stage) lives in the runtimes built on top of it
// (internal/native and internal/mpi).
package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Params describes the hardware characteristics of a simulated machine.
// Rates are in bytes per second; latencies and overheads in nanoseconds.
type Params struct {
	Name         string
	Nodes        int
	CoresPerNode int

	// Network link model.
	LatencyNs   float64 // one-way wire latency between nodes
	Bandwidth   float64 // per-NIC injection bandwidth (B/s)
	MsgOverhead float64 // per-message software overhead at the origin (ns)

	// Intra-node transfers (shared memory).
	LocalLatencyNs float64
	LocalBandwidth float64

	// CPU model.
	CopyRate float64 // memory copy / datatype pack rate (B/s)
	Flops    float64 // per-core floating point rate (flop/s)

	// Memory registration model.
	PageSize        int     // registration granularity (bytes)
	PinPageNs       float64 // cost to register one page on demand
	BounceThreshold int     // transfers <= this can use pre-pinned bounce buffers
	BounceRate      float64 // effective rate of the bounce-buffer (copy) path
	UnpinnedRate    float64 // effective rate of the unregistered pipelined path

	// Target-side processing.
	AccumRate float64 // rate at which a NIC/agent applies accumulates (B/s)

	// Shared-memory segment model. ShmCopyRate is the CPU load/store
	// copy rate between two processes mapping the same node-local
	// segment (B/s). Zero falls back to LocalBandwidth, i.e. no
	// dedicated fast path beyond the intra-node link model.
	ShmCopyRate float64
}

// Validate reports the first problem with the parameter set.
func (p *Params) Validate() error {
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("fabric: %s: Nodes must be positive", p.Name)
	case p.CoresPerNode <= 0:
		return fmt.Errorf("fabric: %s: CoresPerNode must be positive", p.Name)
	case p.Bandwidth <= 0 || p.LocalBandwidth <= 0:
		return fmt.Errorf("fabric: %s: bandwidths must be positive", p.Name)
	case p.CopyRate <= 0 || p.Flops <= 0:
		return fmt.Errorf("fabric: %s: CPU rates must be positive", p.Name)
	case p.PageSize <= 0:
		return fmt.Errorf("fabric: %s: PageSize must be positive", p.Name)
	case p.AccumRate <= 0:
		return fmt.Errorf("fabric: %s: AccumRate must be positive", p.Name)
	}
	return nil
}

// MaxRanks is the number of ranks the machine supports.
func (p *Params) MaxRanks() int { return p.Nodes * p.CoresPerNode }

// nic tracks the occupancy of one node's network interface.
type nic struct {
	freeAt sim.Time
}

// Machine binds fabric state to a sim.Engine for a given rank count.
type Machine struct {
	Eng    *sim.Engine
	Par    Params
	NRanks int

	nics   []nic
	boxes  []*mailbox
	spaces []*AddrSpace
	bufs   *bufPool // payload and backing free list (bufs.go); nil once retired

	// Counters, exposed for tests and benchmarks.
	MsgsSent    int64
	BytesSent   int64
	PagesPinned int64
	ShmCopies   int64
	ShmBytes    int64

	// Obs, when non-nil, is told of every timed transfer, message edge
	// and wake (internal/obs events). All hooks are nil-safe no-ops.
	Obs *obs.Recorder
}

// NewMachine creates fabric state for nranks ranks on engine eng.
// nranks must not exceed par.MaxRanks().
func NewMachine(eng *sim.Engine, par Params, nranks int) (*Machine, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if nranks <= 0 || nranks > par.MaxRanks() {
		return nil, fmt.Errorf("fabric: %s: nranks %d out of range 1..%d",
			par.Name, nranks, par.MaxRanks())
	}
	m := &Machine{Eng: eng, Par: par, NRanks: nranks, bufs: adoptPool()}
	nodes := (nranks + par.CoresPerNode - 1) / par.CoresPerNode
	m.nics = make([]nic, nodes)
	m.boxes = make([]*mailbox, nranks)
	m.spaces = make([]*AddrSpace, nranks)
	for i := range m.boxes {
		m.boxes[i] = &mailbox{m: m, owner: i}
		m.spaces[i] = &AddrSpace{m: m, rank: i, next: addrSpaceBase}
	}
	return m, nil
}

// NodeOf returns the node hosting the given rank.
func (m *Machine) NodeOf(rank int) int { return rank / m.Par.CoresPerNode }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// Space returns the virtual address space of a rank.
func (m *Machine) Space(rank int) *AddrSpace { return m.spaces[rank] }

// Compute charges the virtual time needed to execute flops floating
// point operations on the calling rank's core.
func (m *Machine) Compute(p *sim.Proc, flops float64) {
	if flops <= 0 {
		return
	}
	p.Elapse(sim.FromSeconds(flops / m.Par.Flops))
}

// CopyLocal charges the virtual time of a local memory copy (or
// datatype pack/unpack) of n bytes.
func (m *Machine) CopyLocal(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	p.Elapse(sim.FromSeconds(float64(n) / m.Par.CopyRate))
}

// CopyTime returns the virtual duration of a local copy of n bytes
// without charging it.
func (m *Machine) CopyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(n) / m.Par.CopyRate)
}

// SleepUntil parks the calling rank until absolute virtual time t.
func (m *Machine) SleepUntil(p *sim.Proc, t sim.Time) {
	if d := t - p.Now(); d > 0 {
		p.Elapse(d)
	}
}
