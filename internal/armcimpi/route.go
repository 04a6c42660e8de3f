package armcimpi

import (
	"repro/internal/armci"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The routing layer: locality is a first-class dimension of every
// compiled transfer plan, decided exactly once per operation by the
// runtime's RoutePolicy and stamped onto the plan the compilers in
// plan.go produce. The executor in exec.go carries the decision out —
// self-copy and node-window epochs are plan kinds, leader staging is a
// plan prologue — so a policy (armcimpi's observational default, or
// dartmpi's tiered classifier) only ever answers the question "which
// route, which method, staged or not?" and never moves data itself.

// Route is the locality class a policy assigns to one operation.
type Route int

const (
	// RouteRMA is the wire tier: the plan executes as passive-target
	// RMA epochs (or MPI-3 request ops) against the GMR window.
	RouteRMA Route = iota
	// RouteSelf is the load-store tier: both sides live on the calling
	// rank and the transfer is one local memcpy (accumulates keep a
	// window epoch for atomicity with same-node updates).
	RouteSelf
	// RouteNode is the same-node tier: one exclusive-lock epoch on the
	// policy's node-shared window, whose ops degenerate to shm copies.
	RouteNode
	// RouteStagedRMA is the hierarchical wire tier: the payload stages
	// through the node leader's buffer (queue + shm copy) before the
	// plan's RMA transfer is issued.
	RouteStagedRMA
)

func (r Route) String() string {
	switch r {
	case RouteRMA:
		return "rma"
	case RouteSelf:
		return "self"
	case RouteNode:
		return "node"
	case RouteStagedRMA:
		return "staged-rma"
	default:
		return "route?"
	}
}

// Shape is the surface form of the operation being routed.
type Shape int

const (
	ShapeContig Shape = iota
	ShapeStrided
	ShapeIOV
)

func (s Shape) String() string {
	switch s {
	case ShapeContig:
		return "contig"
	case ShapeStrided:
		return "strided"
	default:
		return "iov"
	}
}

// RouteRequest describes one operation to the policy.
type RouteRequest struct {
	Class OpClass
	Shape Shape
	// Local is the caller-side buffer (source for put/acc, destination
	// for get); Nil for IOV descriptors, whose local sides were already
	// validated against the calling rank.
	Local armci.Addr
	// Remote is the global address (contiguous operations only; Nil for
	// descriptor shapes, which route by Target alone).
	Remote armci.Addr
	// Target is the remote world rank.
	Target int
	// Bytes is the operation's total payload.
	Bytes int
}

// NodeBinding carries the near-tier window resolution a policy returns
// for RouteSelf and RouteNode decisions it wants executed directly.
type NodeBinding struct {
	Win  *mpi.Win // the node-shared window covering the remote address
	Rank int      // the target's rank in Win's communicator
	Disp int      // byte displacement of the remote address in its slice
}

// RouteDecision is the policy's answer: the route, the noncontiguous
// compile method for RMA routes, and how the engine should carry the
// decision out.
type RouteDecision struct {
	Route  Route
	Method Method
	// PerSeg marks a near-tier descriptor: the engine compiles it to a
	// per-segment plan whose segments re-enter the public contiguous
	// operations and are routed (and counted) individually, so segments
	// falling outside the policy's near window still reach the wire.
	PerSeg bool
	// Direct marks a near decision the engine executes natively
	// (self-copy or node-window epoch) using Node. Left false, a
	// RouteSelf/RouteNode decision is an annotation only and the plan
	// executes the ordinary epoch path (armcimpi's default policy: the
	// shm fast path lives inside the MPI layer).
	Direct bool
	Node   NodeBinding
}

// RoutePolicy decides the route and method for every operation the
// engine compiles. Decide must be pure with respect to virtual time
// (the decision itself costs nothing) and free of data movement.
type RoutePolicy interface {
	Decide(req RouteRequest) RouteDecision
	// Staged is the accounting callback the executor invokes after
	// modeling one leader-staging event of n bytes.
	Staged(n int)
}

// enginePolicy is armcimpi's built-in policy: method selection from
// Options, plus a rank-level locality annotation (self / node / rma).
// It never sets Direct — the engine's own shm fast path lives inside
// the MPI window layer, so near decisions still execute as epochs —
// and it never stages.
type enginePolicy struct{ r *Runtime }

func (p enginePolicy) Decide(req RouteRequest) RouteDecision {
	r := p.r
	d := RouteDecision{Route: RouteRMA, Method: r.MethodFor(req.Shape)}
	if r.Opt.NoShm {
		return d
	}
	me := r.Rank()
	switch {
	case req.Target == me:
		d.Route = RouteSelf
	case req.Target >= 0 && req.Target < r.W.Mpi.M.NRanks && r.W.Mpi.M.SameNode(me, req.Target):
		d.Route = RouteNode
	}
	return d
}

func (enginePolicy) Staged(int) {}

// MethodFor resolves the configured noncontiguous method for a shape
// (contiguous transfers have no method choice and report direct).
// Exported so external policies pick methods from the same options the
// engine would.
func (r *Runtime) MethodFor(shape Shape) Method {
	switch shape {
	case ShapeStrided:
		return r.stridedMethod()
	case ShapeIOV:
		return r.Opt.IOVMethod
	default:
		return MethodDirect
	}
}

// SetRoutePolicy installs the runtime's routing policy (dartmpi plugs
// its tier classifier in here). A nil policy restores the default.
func (r *Runtime) SetRoutePolicy(p RoutePolicy) {
	if p == nil {
		p = enginePolicy{r}
	}
	r.policy = p
}

// RouteOf asks the policy how it would route a request, without
// counting it as an operation: the diagnostic probe behind the golden
// decision-table tests. Operation flow never calls this — the engine's
// one decision point is decide below.
func (r *Runtime) RouteOf(req RouteRequest) RouteDecision {
	return r.policy.Decide(req)
}

// routed pairs a decision with the request's payload size, for
// stamping onto compiled plans.
type routed struct {
	dec   RouteDecision
	bytes int
}

// decide is the engine's single routing call site: every operation's
// compile consults the policy exactly once here. Per-segment re-entries
// of an already routed conservative plan consume the pinned decision
// instead (execPerSeg sets it), so a descriptor is decided — and
// counted — once, not once per segment.
func (r *Runtime) decide(req RouteRequest) routed {
	if r.pinned {
		r.pinned = false
		return routed{dec: r.pinnedRoute, bytes: req.Bytes}
	}
	d := r.policy.Decide(req)
	if !d.PerSeg {
		r.countRoute(d, req.Bytes)
	}
	return routed{dec: d, bytes: req.Bytes}
}

// tiers is how the recorder knows each route.
var tiers = [...]obs.Tier{
	RouteRMA:       obs.TierRMA,
	RouteSelf:      obs.TierSelf,
	RouteNode:      obs.TierNode,
	RouteStagedRMA: obs.TierStaged,
}

// countRoute reports one decision from the decision point. Near-tier
// descriptors (PerSeg) are not counted here: their segments re-enter
// the engine and are decided individually.
func (r *Runtime) countRoute(d RouteDecision, bytes int) {
	r.obs().Routed(r.Rank(), tiers[d.Route], bytes)
}
