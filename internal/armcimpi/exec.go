package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The plan executor: the one place that carries out compiled transfer
// plans. It owns staging and deadlock avoidance (via acquireLocal /
// release), prescale temporaries, epoch and flush management per
// backend (via epochCtl), batching, and completion tracking, for both
// blocking execution (execute) and the MPI-3 request-based nonblocking
// path (execNb3).

// execState tracks the resources one blocking plan execution holds so
// they are torn down exactly once — on success through finish, and on
// a mid-sequence failure through abort. It lives on the executing
// function's stack; its slices are the runtime's scratch, borrowed by
// newExec and given back by finish or abort (a nested execution would
// find them lent out and grow its own).
type execState struct {
	r     *Runtime
	e     epochCtl
	open  bool // e is an open epoch
	held  []heldView
	temps []*fabric.Region
}

// heldView is a local view and whether releasing it writes back (gets).
type heldView struct {
	v         localView
	writeBack bool
}

func (r *Runtime) newExec() execState {
	st := execState{r: r, held: r.held, temps: r.temps}
	r.held, r.temps = nil, nil
	return st
}

// giveBack returns the scratch slices, emptied, to the runtime.
func (st *execState) giveBack() {
	clear(st.held)
	clear(st.temps)
	st.r.held, st.r.temps = st.held[:0], st.temps[:0]
	st.held, st.temps = nil, nil
}

func (st *execState) addView(v localView, writeBack bool) {
	st.held = append(st.held, heldView{v: v, writeBack: writeBack})
}

func (st *execState) addTemp(t *fabric.Region) { st.temps = append(st.temps, t) }

// begin opens the epoch the plan's operations issue into.
func (st *execState) begin(p *plan) error {
	e, err := st.r.beginEpoch(p.g, p.gr, p.class)
	if err != nil {
		return err
	}
	st.e, st.open = e, true
	return nil
}

// end closes the open epoch; one that fails to close stays open for
// abort to try again.
func (st *execState) end() error {
	if err := st.e.end(); err != nil {
		return err
	}
	st.open = false
	return nil
}

// issue dispatches one operation into the open epoch.
func (st *execState) issue(class OpClass, buf mpi.LocalBuf, disp int, rtype mpi.Datatype) error {
	switch class {
	case ClassPut:
		return st.e.put(buf, disp, rtype)
	case ClassGet:
		return st.e.get(buf, disp, rtype)
	default:
		return st.e.acc(buf, disp, rtype)
	}
}

// finish releases everything on the success path: prescale temporaries
// first, then local views (staged gets copy their data back under a
// self-lock).
func (st *execState) finish() error {
	for _, t := range st.temps {
		if err := st.r.freeTemp(t); err != nil {
			return err
		}
	}
	clear(st.temps)
	st.temps = st.temps[:0]
	for i := range st.held {
		h := &st.held[i]
		if err := st.r.release(&h.v, h.writeBack); err != nil {
			return err
		}
	}
	st.giveBack()
	return nil
}

// abort cleans up after a mid-sequence failure: close any open epoch
// so the target window is not left locked, free temporaries, and drop
// held views without write-back (their contents are not trustworthy).
func (st *execState) abort() {
	if st.open {
		_ = st.end()
	}
	for _, t := range st.temps {
		_ = st.r.freeTemp(t)
	}
	for i := range st.held {
		_ = st.r.release(&st.held[i].v, false)
	}
	st.giveBack()
}

// execute carries out a compiled plan with blocking semantics: the
// operation is locally (and, epoch discipline permitting, remotely)
// complete on return. Leader-staged plans model the hierarchical hop
// first — the staging copy happens before the wire transfer is issued.
// Everything the plan borrowed goes back to the runtime on return.
func (r *Runtime) execute(p *plan) error {
	defer r.reclaim(p)
	if p.dec.Route == RouteStagedRMA {
		r.execStage(p.stageBytes)
	}
	r.obs().Count(r.Rank(), obs.CPlanExec, 1)
	switch p.kind {
	case planBatched:
		return r.execBatched(p)
	case planPerSeg:
		return r.execPerSeg(p)
	default:
		return r.execSingle(p)
	}
}

// execStage models the hierarchical path for one leader-staged remote
// transfer: a non-leader origin copies the payload into its node
// leader's staging buffer (one shared-memory copy) and queues behind
// the per-node staging pipe before the wire transfer. Eligibility
// (threshold, leader and same-node bypass, ablation switches) was
// decided by the policy; the executor only models the cost.
func (r *Runtime) execStage(n int) {
	m := r.W.Mpi.M
	me := r.Rank()
	node := m.NodeOf(me)
	if r.W.leaderBusy == nil {
		cpn := m.Par.CoresPerNode
		r.W.leaderBusy = make([]sim.Time, (m.NRanks+cpn-1)/cpn)
	}
	p := r.R.P
	t0 := p.Now()
	if b := r.W.leaderBusy[node]; b > t0 {
		m.SleepUntil(p, b)
		r.obs().Waited(obs.Wait{Kind: obs.WaitLeaderQueue, Rank: me, From: t0, To: p.Now()})
	}
	c0 := p.Now()
	m.ShmCopy(p, n)
	r.obs().Waited(obs.Wait{Kind: obs.WaitLeaderCopy, Rank: me, From: c0, To: p.Now(), N: n})
	r.W.leaderBusy[node] = p.Now()
}

// execSingle issues one datatype-described operation in one epoch.
func (r *Runtime) execSingle(p *plan) (err error) {
	st := r.newExec()
	defer func() {
		if err != nil {
			st.abort()
		}
	}()
	v, err := r.acquireLocal(p.local, p.span)
	if err != nil {
		return err
	}
	st.addView(v, p.class == ClassGet)
	buf := v.buf(p.local.VA, p.ltype)
	if p.class == ClassAcc && p.scale != 1 {
		var scaled *fabric.Region
		if scaled, err = r.prescale(&v, p.local.VA, p.ltype, p.scale); err != nil {
			return err
		}
		st.addTemp(scaled)
		buf = mpi.LocalBuf{Region: scaled, Off: 0, Type: r.contig(p.ltype.Size())}
	}
	if err = st.begin(p); err != nil {
		return err
	}
	if err = st.issue(p.class, buf, p.disp, p.rtype); err != nil {
		return err
	}
	if err = st.end(); err != nil {
		return err
	}
	r.obs().Count(r.Rank(), obs.CPlanSegs, 1)
	return st.finish()
}

// execBatched issues up to p.batch contiguous operations per epoch
// against one GMR. Batched local buffers are never staged (the
// compiler routed global-buffer sources to the conservative plan), so
// holding all views until finish is free — but the discipline keeps
// the release invariant uniform across plan kinds.
func (r *Runtime) execBatched(p *plan) (err error) {
	st := r.newExec()
	defer func() {
		if err != nil {
			st.abort()
		}
	}()
	b := p.batch
	if b <= 0 {
		b = len(p.segs)
	}
	for start := 0; start < len(p.segs); start += b {
		end := start + b
		if end > len(p.segs) {
			end = len(p.segs)
		}
		if err = st.begin(p); err != nil {
			return err
		}
		for _, sg := range p.segs[start:end] {
			var v localView
			if v, err = r.acquireLocal(sg.local, sg.n); err != nil {
				return err
			}
			st.addView(v, p.class == ClassGet)
			t := r.contig(sg.n)
			buf := v.buf(sg.local.VA, t)
			if p.class == ClassAcc && p.scale != 1 {
				var scaled *fabric.Region
				if scaled, err = r.prescale(&v, sg.local.VA, t, p.scale); err != nil {
					return err
				}
				st.addTemp(scaled)
				buf = mpi.LocalBuf{Region: scaled, Off: 0, Type: t}
			}
			if err = st.issue(p.class, buf, int(sg.remote.VA-p.base), t); err != nil {
				return err
			}
		}
		if err = st.end(); err != nil {
			return err
		}
	}
	r.obs().Count(r.Rank(), obs.CPlanSegs, len(p.segs))
	return st.finish()
}

// execPerSeg re-enters the engine once per segment through the public
// contiguous operations, giving each segment its own epoch (and its
// own per-segment span check). Each re-entry is pinned to the wire:
// the descriptor was already decided and counted, so re-entry neither
// re-counts nor re-stages.
func (r *Runtime) execPerSeg(p *plan) error {
	defer func() { r.pinned = false }()
	for _, sg := range p.segs {
		r.pinned = true
		var err error
		switch p.class {
		case ClassPut:
			err = r.Put(sg.local, sg.remote, sg.n)
		case ClassGet:
			err = r.Get(sg.remote, sg.local, sg.n)
		case ClassAcc:
			err = r.Acc(armci.AccDbl, p.scale, sg.local, sg.remote, sg.n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// nbHandle tracks a set of MPI-3 request-based operations plus the
// local resources (views, prescale temporaries) they hold. Wait and
// Test are idempotent: the first completion settles the handle and
// later calls return immediately.
type nbHandle struct {
	r     *Runtime
	reqs  []*mpi.RMAReq
	views []localView
	wb    []bool
	temps []*fabric.Region
	done  bool
}

func (h *nbHandle) Wait() {
	if h.done {
		return
	}
	mpi.WaitAllRMA(h.reqs)
	h.settle()
}

func (h *nbHandle) Test() bool {
	if h.done {
		return true
	}
	if !mpi.TestAllRMA(h.reqs) {
		return false
	}
	h.settle()
	return true
}

// settle releases the handle's resources exactly once, after every
// request has completed locally. Wait has no error return, so cleanup
// failures (a corrupted allocator) are programming errors and panic.
func (h *nbHandle) settle() {
	h.done = true
	h.r.obs().Count(h.r.Rank(), obs.CNbDone, len(h.reqs))
	for _, t := range h.temps {
		if err := h.r.freeTemp(t); err != nil {
			panic(fmt.Sprintf("armcimpi: nonblocking cleanup failed: %v", err))
		}
	}
	for i := range h.views {
		if err := h.r.release(&h.views[i], h.wb[i]); err != nil {
			panic(fmt.Sprintf("armcimpi: nonblocking cleanup failed: %v", err))
		}
	}
	h.reqs, h.views, h.wb, h.temps = nil, nil, nil, nil
}

// execNb3 issues a compiled plan as MPI-3 request-based operations and
// returns a handle tracking completion of the whole set. Under MPI-3
// local buffers are never staged and lock-all replaces per-op epochs,
// so every plan kind flattens to a stream of R-operations. Leader-staged
// plans model the staging hop before any request issues. The plan
// gives its segment list back once issued, and keeps its datatype pair:
// a put's landing reads the target type after its request completes.
func (r *Runtime) execNb3(p *plan) (armci.Handle, error) {
	p.pair = nil
	defer r.reclaim(p)
	if p.dec.Route == RouteStagedRMA {
		r.execStage(p.stageBytes)
	}
	h := &nbHandle{r: r}
	if err := r.issueNb3(p, h); err != nil {
		// Requests already in flight cannot be recalled: complete them
		// and release everything the handle holds before reporting.
		h.Wait()
		return nil, err
	}
	r.obs().Count(r.Rank(), obs.CNbIssued, len(h.reqs))
	return h, nil
}

func (r *Runtime) issueNb3(p *plan, h *nbHandle) error {
	switch p.kind {
	case planSingle:
		return r.issueOneNb3(h, p, p.local, p.span, p.ltype, p.disp, p.rtype)
	case planBatched:
		for _, sg := range p.segs {
			t := r.contig(sg.n)
			if err := r.issueOneNb3(h, p, sg.local, sg.n, t, int(sg.remote.VA-p.base), t); err != nil {
				return err
			}
		}
		return nil
	case planPerSeg:
		// Each segment of a conservative descriptor inherits its
		// already counted decision, as a wire operation.
		for _, sg := range p.segs {
			rt := routed{dec: RouteDecision{Route: RouteRMA, Method: p.dec.Method}, bytes: sg.n}
			sub, err := r.compileContig(p.class, p.scale, sg.local, sg.remote, sg.n, rt)
			if err != nil {
				return err
			}
			if err := r.issueNb3(&sub, h); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("armcimpi: unknown plan kind %d", p.kind)
}

// issueOneNb3 issues a single request-based operation for one local
// view against the plan's GMR, recording the resources on the handle.
func (r *Runtime) issueOneNb3(h *nbHandle, p *plan, local armci.Addr, span int, ltype mpi.Datatype, disp int, rtype mpi.Datatype) error {
	v, err := r.acquireLocal(local, span)
	if err != nil {
		return err
	}
	h.views = append(h.views, v)
	h.wb = append(h.wb, p.class == ClassGet)
	buf := v.buf(local.VA, ltype)
	if p.class == ClassAcc && p.scale != 1 {
		scaled, err := r.prescale(&v, local.VA, ltype, p.scale)
		if err != nil {
			return err
		}
		h.temps = append(h.temps, scaled)
		buf = mpi.LocalBuf{Region: scaled, Off: 0, Type: r.contig(ltype.Size())}
	}
	win := p.g.Ext.wins[r.Rank()]
	if err := r.ensureLockAll(win); err != nil {
		return err
	}
	var req *mpi.RMAReq
	switch p.class {
	case ClassPut:
		req, err = win.RPut(buf, p.gr, disp, rtype)
	case ClassGet:
		req, err = win.RGet(buf, p.gr, disp, rtype)
	default:
		req, err = win.RAccumulate(buf, mpi.OpSum, p.gr, disp, rtype)
	}
	if err != nil {
		return err
	}
	if p.class != ClassGet {
		// Puts and accumulates complete remotely at Fence/AllFence.
		r.addPending(win, p.gr)
	}
	h.reqs = append(h.reqs, req)
	return nil
}
