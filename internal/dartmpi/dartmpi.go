// Package dartmpi is a locality-aware ARMCI runtime in the style of
// DART-MPI ("DART-MPI: An MPI-based Implementation of a PGAS Runtime
// System" and "Leveraging MPI-3 Shared-Memory Extensions for Efficient
// PGAS Runtime Systems"). Both papers keep two tiers: load/store within
// a node, RMA between nodes. Here both live on one window per
// allocation, the armcimpi GMR window: it is created in the
// Win_allocate_shared flavor, so a node peer's slice is reached through
// the MPI layer's shm route and a remote slice over RMA. The routing
// policy labels every operation:
//
//	self      - the caller's own slice
//	same-node - a node peer's slice, over the shm route
//	remote    - the engine's RMA transfer plans, large transfers
//	            staged through the node-leader rank (hierarchical
//	            put/get behind a per-node staging pipe)
//
// The runtime is the armcimpi transfer-plan engine itself; dartmpi
// contributes only the RoutePolicy below, which adds leader staging to
// the engine's labels. Under NoShm every target is remote and nothing
// is staged.
package dartmpi

import (
	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/mpi"
)

// DefaultStageThreshold is the smallest remote transfer, in bytes,
// staged through the node leader when Options.StageThreshold is 0.
const DefaultStageThreshold = 8192

// Runtime is one rank's dartmpi handle: the armcimpi engine steered by
// the dart routing policy. Every ARMCI operation is the promoted engine
// method.
type Runtime struct{ *armcimpi.Runtime }

// New creates the per-rank dartmpi runtime over an ARMCI-MPI world.
func New(w *armcimpi.World, r *mpi.Rank, opt armcimpi.Options) *Runtime {
	rt := &Runtime{armcimpi.New(w, r, opt)}
	rt.SetRoutePolicy(dartPolicy{rt.Runtime})
	return rt
}

var _ armci.Runtime = (*Runtime)(nil)

// Name identifies the implementation.
func (r *Runtime) Name() string { return "dartmpi" }

// dartPolicy is dartmpi's RoutePolicy: the engine's own decision, with
// large remote transfers from a non-leader core promoted to
// leader-staged RMA. It only answers routing questions — no fabric
// calls, no virtual time.
type dartPolicy struct{ r *armcimpi.Runtime }

func (p dartPolicy) Decide(req armcimpi.RouteRequest) armcimpi.RouteDecision {
	d := p.r.DefaultRoute(req)
	if d.Route == armcimpi.RouteRMA && p.staged(req.Target, req.Bytes) {
		d.Route = armcimpi.RouteStagedRMA
	}
	return d
}

// staged reports whether a wire transfer to target is eligible for
// hierarchical leader staging: large enough, genuinely inter-node, and
// not issued by the node leader itself (the leader sends directly).
// NoShm and NoLeaderStaging both disable it.
func (p dartPolicy) staged(target, n int) bool {
	opt := p.r.Opt
	threshold := opt.StageThreshold
	if threshold <= 0 {
		threshold = DefaultStageThreshold
	}
	if opt.NoShm || opt.NoLeaderStaging || n < threshold {
		return false
	}
	m := p.r.W.Mpi.M
	me := p.r.Rank()
	if target < 0 || target >= m.NRanks || m.SameNode(me, target) {
		return false
	}
	return me != m.NodeOf(me)*m.Par.CoresPerNode
}
