package dartmpi

import "repro/internal/armcimpi"

// dartPolicy is dartmpi's RoutePolicy: the locality classifier the
// engine consults once per operation. It only answers routing
// questions — the engine's compiler and executor move all data — so
// every Decide path is pure: no fabric calls, no virtual time.
type dartPolicy struct{ r *Runtime }

var _ armcimpi.RoutePolicy = dartPolicy{}

// Decide routes one operation. Contiguous transfers classify against
// the node-window translation table and bind the matching window for
// direct execution (self-copy or node epoch). Strided and IOV
// descriptors route whole: a near target compiles to the per-segment
// plan, whose segments re-enter the engine and re-classify (so
// segments falling outside the table still reach the wire); a far
// target keeps the engine's configured method and, when large enough,
// stages through the node leader.
func (p dartPolicy) Decide(req armcimpi.RouteRequest) armcimpi.RouteDecision {
	r := p.r
	d := armcimpi.RouteDecision{Route: armcimpi.RouteRMA, Method: r.MethodFor(req.Shape)}
	me := r.Rank()
	m := r.W.Mpi.M
	near := !r.Opt.NoShm && req.Target >= 0 && req.Target < m.NRanks &&
		(req.Target == me || m.SameNode(me, req.Target))
	if req.Shape != armcimpi.ShapeContig {
		// The local side of a strided descriptor must be the caller for
		// the near tiers (IOV descriptors were already validated so).
		if near && (req.Shape == armcimpi.ShapeIOV || req.Local.Rank == me) {
			d.PerSeg = true
			d.Route = armcimpi.RouteNode
			if req.Target == me {
				d.Route = armcimpi.RouteSelf
			}
			return d
		}
		if p.staged(req.Target, req.Bytes) {
			d.Route = armcimpi.RouteStagedRMA
		}
		return d
	}
	if near && req.Bytes > 0 && req.Local.Rank == me {
		if a, gr, ok := r.W.dir.FindRange(req.Remote, req.Bytes); ok {
			if win := a.Ext[me]; win != nil {
				if wr := win.Comm().RankOfWorld(req.Remote.Rank); wr >= 0 {
					d.Direct = true
					d.Route = armcimpi.RouteNode
					if req.Remote.Rank == me {
						d.Route = armcimpi.RouteSelf
					}
					d.Node = armcimpi.NodeBinding{
						Win:  win,
						Rank: wr,
						Disp: int(req.Remote.VA - a.Addrs[gr].VA),
					}
					return d
				}
			}
		}
	}
	if p.staged(req.Target, req.Bytes) {
		d.Route = armcimpi.RouteStagedRMA
	}
	return d
}

// staged reports whether a wire transfer to target is eligible for
// hierarchical leader staging: large enough, genuinely inter-node, and
// not issued by the node leader itself (the leader sends directly).
// Both ablation switches disable it.
func (p dartPolicy) staged(target, n int) bool {
	r := p.r
	if r.Opt.NoShm || r.Opt.NoLeaderStaging || n < r.stageThreshold() {
		return false
	}
	m := r.W.Mpi.M
	me := r.Rank()
	if target < 0 || target >= m.NRanks || m.SameNode(me, target) {
		return false
	}
	return me != m.NodeOf(me)*m.Par.CoresPerNode
}

// Staged records one leader-staging event the executor modeled (the
// engine emits the dart.leader.* counters itself).
func (p dartPolicy) Staged(n int) {
	p.r.W.Staged++
	p.r.W.StagedBytes += int64(n)
}
