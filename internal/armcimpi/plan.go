package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/mpi"
	"repro/internal/spans"
)

// The transfer-plan engine. Every ARMCI data-movement operation —
// contiguous, strided, and generalized I/O vector; put, get, and
// accumulate; blocking and nonblocking — compiles to one plan
// descriptor and is carried out by the single executor in exec.go.
// The compilers in this file own method selection (SectionVI), GMR
// resolution, and SectionVI.B's conflict-tree safety scan
// (destsDisjoint); the executor owns staging, deadlock avoidance,
// prescale temporaries, epoch and flush management per backend,
// batching, and completion tracking.

// planKind selects the executor strategy for a compiled plan.
type planKind int

const (
	// planSingle issues one datatype-described operation in one epoch:
	// contiguous transfers, the direct strided translation
	// (SectionVI.C), and the IOV-direct indexed-datatype method.
	planSingle planKind = iota
	// planBatched issues up to batch contiguous operations per epoch
	// against one GMR (SectionVI.B).
	planBatched
	// planPerSeg re-enters the engine once per contiguous segment,
	// each in its own epoch; segments may overlap and span GMRs (the
	// conservative method).
	planPerSeg
)

// planSeg is one contiguous piece of a batched plan, its displacement
// already resolved against the target's window slice.
type planSeg struct {
	local armci.Addr
	disp  int
	n     int
}

// contigSeg is one unresolved segment of a conservative plan; the
// remote side keeps the full global address because conservative
// segments may fall in different GMRs.
type contigSeg struct {
	local, remote armci.Addr
	n             int
}

// plan is the compiled descriptor of one ARMCI operation.
type plan struct {
	class OpClass
	scale float64
	kind  planKind

	// The routing decision the policy made for this operation, and the
	// payload size behind it (execStage's staging model runs on the
	// whole descriptor, not per segment).
	dec        RouteDecision
	stageBytes int

	// Target GMR (planSingle and planBatched; conservative segments
	// resolve their own).
	g  *GMR
	gr int

	// planSingle: one local view [local, local+span) described by
	// ltype, one remote region at disp described by rtype.
	local armci.Addr
	span  int
	ltype mpi.Datatype
	rtype mpi.Datatype
	disp  int

	// planBatched.
	segs  []planSeg
	batch int

	// planPerSeg.
	csegs []contigSeg
}

// compileContig builds the plan for a contiguous transfer. The caller
// has already validated the request (CheckContig and, for accumulate,
// float64 alignment) and routed it.
func (r *Runtime) compileContig(class OpClass, scale float64, local, remote armci.Addr, n int, rt routed) (plan, error) {
	g, gr, disp, err := r.remote(remote, n)
	if err != nil {
		return plan{}, err
	}
	t := r.contig(n)
	return plan{
		class: class, scale: scale, kind: planSingle,
		g: g, gr: gr, local: local, span: n, ltype: t, rtype: t, disp: disp,
		dec: rt.dec, stageBytes: rt.bytes,
	}, nil
}

// compileStrided builds the plan for a strided transfer using the
// routed method: the direct subarray translation (SectionVI.C) or the
// IOV engine over the descriptor's segment expansion.
func (r *Runtime) compileStrided(class OpClass, scale float64, s *armci.Strided, rt routed) (plan, error) {
	if rt.dec.Method != MethodDirect {
		g := s.ToGIOV()
		proc := s.Dst.Rank
		if class == ClassGet {
			proc = s.Src.Rank
		}
		return r.compileIOV(class, scale, []armci.GIOV{g}, proc, rt)
	}
	localAddr, remoteAddr := s.Src, s.Dst
	localStride, remoteStride := s.SrcStride, s.DstStride
	localSpan, remoteSpan := s.SrcSpan(), s.DstSpan()
	if class == ClassGet {
		localAddr, remoteAddr = s.Dst, s.Src
		localStride, remoteStride = s.DstStride, s.SrcStride
		localSpan, remoteSpan = s.DstSpan(), s.SrcSpan()
	}
	g, gr, disp, err := r.remote(remoteAddr, remoteSpan)
	if err != nil {
		return plan{}, err
	}
	return plan{
		class: class, scale: scale, kind: planSingle, g: g, gr: gr,
		local: localAddr, span: localSpan,
		ltype: r.stridedTypeCached(localStride, s.Count),
		rtype: r.stridedTypeCached(remoteStride, s.Count),
		disp:  disp,
		dec:   rt.dec, stageBytes: rt.bytes,
	}, nil
}

// compileIOV builds the plan for a generalized I/O vector transfer
// with the routed method (SectionVI.A).
func (r *Runtime) compileIOV(class OpClass, scale float64, iov []armci.GIOV, proc int, rt routed) (plan, error) {
	if err := armci.ValidateIOV(iov, proc, class == ClassGet); err != nil {
		return plan{}, err
	}
	segs := orient(iov, class)
	if len(segs) == 0 {
		return plan{class: class, scale: scale, kind: planPerSeg, dec: rt.dec}, nil
	}
	p, err := func() (plan, error) {
		switch rt.dec.Method {
		case MethodConservative:
			return r.compileConservative(class, scale, segs), nil
		case MethodBatched:
			return r.compileBatched(class, scale, segs)
		case MethodIOVDirect, MethodDirect:
			return r.compileIOVDirect(class, scale, segs)
		case MethodAuto:
			return r.compileAuto(class, scale, segs)
		default:
			return plan{}, fmt.Errorf("armcimpi: unknown IOV method %v", rt.dec.Method)
		}
	}()
	if err != nil {
		return plan{}, err
	}
	p.dec, p.stageBytes = rt.dec, rt.bytes
	return p, nil
}

// compileAuto is SectionVI.B's conflict-tree scan: if all remote
// segments fall in one GMR and the destination segments do not overlap,
// the fast method (batched) is safe; otherwise fall back to
// conservative.
func (r *Runtime) compileAuto(class OpClass, scale float64, segs []iovSeg) (plan, error) {
	r.W.AutoScans++
	safe := true
	var g0 *GMR
	for _, sg := range segs {
		g, _, _, ok := r.W.dir.Find(sg.remote)
		if !ok || g0 != nil && g != g0 {
			safe = false // a segment outside every GMR, or segments in different GMRs
			break
		}
		g0 = g
	}
	if !safe || !r.destsDisjoint(class, segs) {
		r.W.AutoFalls++
		return r.compileConservative(class, scale, segs), nil
	}
	return r.compileBatched(class, scale, segs)
}

// compileConservative plans one contiguous operation per segment, each
// in its own epoch; segments may overlap and span GMRs.
func (r *Runtime) compileConservative(class OpClass, scale float64, segs []iovSeg) plan {
	csegs := make([]contigSeg, len(segs))
	for i, sg := range segs {
		csegs[i] = contigSeg{local: sg.local, remote: sg.remote, n: sg.n}
	}
	return plan{class: class, scale: scale, kind: planPerSeg, csegs: csegs}
}

// compileBatched plans up to BatchSize contiguous operations per
// epoch; all remote segments must fall in one GMR and not overlap, or
// MPI reports an error (SectionVI.B's motivation). Local buffers
// living in global space force the conservative plan (staging cannot
// be done while the remote epoch is open).
func (r *Runtime) compileBatched(class OpClass, scale float64, segs []iovSeg) (plan, error) {
	for _, sg := range segs {
		if _, _, _, inGMR := r.W.dir.Find(sg.local); inGMR && !r.Opt.NoStaging {
			return r.compileConservative(class, scale, segs), nil
		}
	}
	if class == ClassGet && !r.destsDisjoint(class, segs) {
		// Gets land in local destinations: aliased destinations within
		// one epoch would be written in arbitrary order, so serialize
		// them through the per-segment plan.
		return r.compileConservative(class, scale, segs), nil
	}
	g, gr, _, err := r.remoteGMR(segs[0].remote)
	if err != nil {
		return plan{}, err
	}
	base := g.Addrs[gr]
	ps := make([]planSeg, len(segs))
	for i, sg := range segs {
		ps[i] = planSeg{local: sg.local, disp: int(sg.remote.VA - base.VA), n: sg.n}
	}
	return plan{
		class: class, scale: scale, kind: planBatched,
		g: g, gr: gr, segs: ps, batch: r.Opt.BatchSize,
	}, nil
}

// destsDisjoint reports whether a descriptor's destination segments —
// remote for put and accumulate, local for get — are non-empty and
// pairwise disjoint. Two segments writing the same bytes within one
// epoch may land in either order, whereas overlapping get sources are
// read-read and harmless. The spans go through the runtime's scratch
// slice, so a warm scan allocates nothing.
func (r *Runtime) destsDisjoint(class OpClass, segs []iovSeg) bool {
	r.scan = r.scan[:0]
	for _, sg := range segs {
		dst := sg.remote.VA
		if class == ClassGet {
			dst = sg.local.VA
		}
		r.scan = append(r.scan, spans.Span[struct{}]{Lo: dst, Hi: dst + int64(sg.n)})
	}
	return spans.Disjoint(r.scan)
}

// compileIOVDirect plans one MPI indexed datatype per side and a
// single operation, letting MPI choose pack/unpack or batching
// (SectionVI.A's direct method).
func (r *Runtime) compileIOVDirect(class OpClass, scale float64, segs []iovSeg) (plan, error) {
	g, gr, _, err := r.remoteGMR(segs[0].remote)
	if err != nil {
		return plan{}, err
	}
	base := g.Addrs[gr]
	// Local side: offsets relative to the lowest local address.
	localBase := segs[0].local.VA
	for _, sg := range segs {
		if sg.local.VA < localBase {
			localBase = sg.local.VA
		}
	}
	localSpan := 0
	lOffs := make([]int, len(segs))
	lLens := make([]int, len(segs))
	rOffs := make([]int, len(segs))
	rLens := make([]int, len(segs))
	for i, sg := range segs {
		lOffs[i] = int(sg.local.VA - localBase)
		lLens[i] = sg.n
		if lOffs[i]+sg.n > localSpan {
			localSpan = lOffs[i] + sg.n
		}
		rOffs[i] = int(sg.remote.VA - base.VA)
		rLens[i] = sg.n
	}
	return plan{
		class: class, scale: scale, kind: planSingle, g: g, gr: gr,
		local: armci.Addr{Rank: r.Rank(), VA: localBase}, span: localSpan,
		ltype: mpi.TypeIndexed(lOffs, lLens),
		rtype: mpi.TypeIndexed(rOffs, rLens),
		disp:  0,
	}, nil
}

// contig is mpi.TypeContiguous(n), keeping the last one built: a
// datatype is immutable, and boxing one into the Datatype interface is
// an allocation that the segments of one strided plan — all the same
// length — would otherwise pay once each.
func (r *Runtime) contig(n int) mpi.Datatype {
	if t := r.lastContig; t != nil && t.Size() == n {
		return t
	}
	r.lastContig = mpi.TypeContiguous(n)
	return r.lastContig
}

// remoteGMR resolves a remote address to its GMR without a span check
// (per-segment checks happen via window bounds).
func (r *Runtime) remoteGMR(addr armci.Addr) (*GMR, int, int, error) {
	g, gr, disp, ok := r.W.dir.Find(addr)
	if !ok {
		return nil, 0, 0, fmt.Errorf("armcimpi: %v is not in any GMR", addr)
	}
	return g, gr, disp, nil
}
