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

	// The descriptor's segments, oriented (planBatched and planPerSeg
	// run them; an IOV-direct plan only carries them back). A batched
	// segment's displacement is its remote address less base, the
	// target's first byte of the GMR; conservative segments keep their
	// full remote address, since they may fall in different GMRs.
	segs  []iovSeg
	base  int64
	batch int

	// pair is the IOV-direct plan's datatype pair, which ltype and rtype
	// live in; nil for every other plan.
	pair *typePair
}

// iovScratch is the storage a runtime's non-direct strided and IOV
// compiles reuse. A compile borrows its segment list and IOV-direct's
// datatype pair, and reclaim gives them back once nothing reads them.
// A blocking execute completes before it returns, so its plan gives
// back both there. A nonblocking plan gives back its segment list once
// execNb3 has issued it (its requests carry contiguous types and
// regions, not the list), but never its datatype pair: an MPI-3 put
// lands after its request completes and reads the target type then. A
// compile that finds the scratch lent out (a nested execution) or kept
// by a request in flight grows its own, and one that fails drops what
// it borrowed. scan is destsDisjoint's span list, so each scan is
// allocation-free once it has grown.
type iovScratch struct {
	segs []iovSeg
	pair *typePair
	scan []spans.Span[struct{}]
}

// scratch returns the runtime's iovScratch, allocating it on first use.
func (r *Runtime) scratch() *iovScratch {
	if r.sc == nil {
		r.sc = new(iovScratch)
	}
	return r.sc
}

// typePair is IOV-direct's two indexed datatypes and the offset and
// length lists they are built from, all rebuilt in place.
type typePair struct {
	lOffs, rOffs, lens []int
	local, remote      mpi.IndexedBuilder
}

// takeSegs lends the runtime's segment list, emptied, to a compile.
func (r *Runtime) takeSegs() []iovSeg {
	sc := r.scratch()
	segs := sc.segs[:0]
	sc.segs = nil
	return segs
}

// takePair lends the runtime's datatype pair to a compile.
func (r *Runtime) takePair() *typePair {
	sc := r.scratch()
	tp := sc.pair
	sc.pair = nil
	if tp == nil {
		tp = new(typePair)
	}
	return tp
}

// reclaim gives back what p borrowed.
func (r *Runtime) reclaim(p *plan) {
	if p.segs != nil {
		r.scratch().segs = p.segs[:0]
	}
	if p.pair != nil {
		r.scratch().pair = p.pair
	}
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

// compileStrided builds the plan for a validated strided transfer
// using the routed method: the direct subarray translation
// (SectionVI.C) or the IOV engine over the descriptor's segments,
// expanded straight into the runtime's segment list and checked as
// ValidateIOV checks the one-entry I/O vector s.ToGIOV().
func (r *Runtime) compileStrided(class OpClass, scale float64, s *armci.Strided, rt routed) (plan, error) {
	if rt.dec.Method != MethodDirect {
		proc := s.Dst.Rank
		if class == ClassGet {
			proc = s.Src.Rank
		}
		segs := stridedSegs(r.takeSegs(), class, s)
		for j, sg := range segs {
			if err := armci.CheckSegment(0, j, sg.remote, sg.local, proc); err != nil {
				return plan{}, err
			}
		}
		return r.compileSegs(class, scale, segs, rt)
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
	return r.compileSegs(class, scale, orient(r.takeSegs(), iov, class), rt)
}

// compileSegs builds the plan for an oriented segment list with the
// routed method.
func (r *Runtime) compileSegs(class OpClass, scale float64, segs []iovSeg, rt routed) (plan, error) {
	if len(segs) == 0 {
		return plan{class: class, scale: scale, kind: planPerSeg, dec: rt.dec, segs: segs}, nil
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
	return plan{class: class, scale: scale, kind: planPerSeg, segs: segs}
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
	return plan{
		class: class, scale: scale, kind: planBatched,
		g: g, gr: gr, segs: segs, base: g.Addrs[gr].VA, batch: r.Opt.BatchSize,
	}, nil
}

// destsDisjoint reports whether a descriptor's destination segments —
// remote for put and accumulate, local for get — are non-empty and
// pairwise disjoint. Two segments writing the same bytes within one
// epoch may land in either order, whereas overlapping get sources are
// read-read and harmless. The spans go through the runtime's scratch
// slice, so a warm scan allocates nothing.
func (r *Runtime) destsDisjoint(class OpClass, segs []iovSeg) bool {
	sc := r.scratch()
	sc.scan = sc.scan[:0]
	for _, sg := range segs {
		dst := sg.remote.VA
		if class == ClassGet {
			dst = sg.local.VA
		}
		sc.scan = append(sc.scan, spans.Span[struct{}]{Lo: dst, Hi: dst + int64(sg.n)})
	}
	return spans.Disjoint(sc.scan)
}

// compileIOVDirect plans one MPI indexed datatype per side and a
// single operation, letting MPI choose pack/unpack or batching
// (SectionVI.A's direct method). The pair is rebuilt in the borrowed
// typePair, and not at all when the lists are the last plan's.
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
	tp := r.takePair()
	tp.lOffs, tp.rOffs, tp.lens = tp.lOffs[:0], tp.rOffs[:0], tp.lens[:0]
	for _, sg := range segs {
		off := int(sg.local.VA - localBase)
		localSpan = max(localSpan, off+sg.n)
		tp.lOffs = append(tp.lOffs, off)
		tp.rOffs = append(tp.rOffs, int(sg.remote.VA-base.VA))
		tp.lens = append(tp.lens, sg.n)
	}
	return plan{
		class: class, scale: scale, kind: planSingle, g: g, gr: gr,
		local: armci.Addr{Rank: r.Rank(), VA: localBase}, span: localSpan,
		ltype: tp.local.Build(tp.lOffs, tp.lens),
		rtype: tp.remote.Build(tp.rOffs, tp.lens),
		disp:  0,
		segs:  segs, pair: tp,
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
