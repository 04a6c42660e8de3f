package armcimpi

import "repro/internal/obs"

// The routing layer: locality is a first-class dimension of every
// compiled transfer plan, decided exactly once per operation by the
// runtime's RoutePolicy and stamped onto the plan the compilers in
// plan.go produce. Every route runs on the GMR window — its shared
// flavor turns a near target's operations into shm copies inside the
// MPI layer, and leader staging is a plan prologue — so a policy
// (armcimpi's default, or dartmpi's, which adds staging) only ever
// answers "which route, which method?" and never moves data itself.

// Route is the locality class a policy assigns to one operation.
type Route int

const (
	// RouteRMA is the wire tier: the plan executes as passive-target
	// RMA epochs (or MPI-3 request ops) against the GMR window.
	RouteRMA Route = iota
	// RouteSelf is a target on the calling rank.
	RouteSelf
	// RouteNode is a same-node target, reached over the shm route.
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
	// Target is the remote world rank.
	Target int
	// Bytes is the operation's total payload.
	Bytes int
}

// RouteDecision is the policy's answer: the route, and the
// noncontiguous compile method.
type RouteDecision struct {
	Route  Route
	Method Method
}

// RoutePolicy decides the route and method for every operation the
// engine compiles. Decide must be pure with respect to virtual time
// (the decision itself costs nothing) and free of data movement.
type RoutePolicy interface {
	Decide(req RouteRequest) RouteDecision
}

// enginePolicy is armcimpi's built-in policy, DefaultRoute. It never
// stages.
type enginePolicy struct{ r *Runtime }

func (p enginePolicy) Decide(req RouteRequest) RouteDecision { return p.r.DefaultRoute(req) }

// DefaultRoute is the engine's own decision: the method Options
// configure for the shape, and the target's locality label as the
// calling rank sees it — self, node (same node) or rma; under NoShm
// every target is rma. Exported so external policies start from it.
func (r *Runtime) DefaultRoute(req RouteRequest) RouteDecision {
	d := RouteDecision{Route: RouteRMA, Method: r.methodFor(req.Shape)}
	m := r.W.Mpi.M
	switch {
	case r.Opt.NoShm || req.Target < 0 || req.Target >= m.NRanks:
	case req.Target == r.Rank():
		d.Route = RouteSelf
	case m.SameNode(r.Rank(), req.Target):
		d.Route = RouteNode
	}
	return d
}

// methodFor resolves the configured noncontiguous method for a shape
// (contiguous transfers have no method choice and report direct).
func (r *Runtime) methodFor(shape Shape) Method {
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
// its staging policy in here). A nil policy restores the default.
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
// compile consults the policy exactly once here and reports the
// decision to the recorder. Per-segment re-entries of a conservative
// plan are wire operations that were already decided — and counted —
// with their descriptor (execPerSeg sets pinned), so they neither
// re-count nor re-stage.
func (r *Runtime) decide(req RouteRequest) routed {
	if r.pinned {
		r.pinned = false
		return routed{dec: RouteDecision{Route: RouteRMA, Method: MethodDirect}, bytes: req.Bytes}
	}
	d := r.policy.Decide(req)
	r.obs().Routed(r.Rank(), tiers[d.Route], req.Bytes)
	return routed{dec: d, bytes: req.Bytes}
}

// tiers is how the recorder knows each route.
var tiers = [...]obs.Tier{
	RouteRMA:       obs.TierRMA,
	RouteSelf:      obs.TierSelf,
	RouteNode:      obs.TierNode,
	RouteStagedRMA: obs.TierStaged,
}
