package armci

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// This file is the transport-independent half of an ARMCI runtime that
// moves bytes itself instead of translating to MPI RMA: collective
// allocation and leader-elected free over the Directory, local memory,
// validation and resolution of every request shape to an Xfer, the
// data movement of every transfer, the blocking and nonblocking
// surface, fence horizons, read-modify-write, the mutex FIFO, direct
// local access, access modes, and groups. What a byte or a control
// message costs, and which resource it occupies on the way, is the
// Transport's business: internal/native and internal/dataserver are
// two of them.
//
// Every put, accumulate and get moves its bytes at issue, in program
// order (Xfer.move). ARMCI's location-consistent model allows it: a
// blocking put or accumulate may take effect anywhere between issue and
// the Fence that completes it remotely, and a get may read its source
// anywhere between issue and completion. Moving at issue is one of
// those outcomes, and it is the one under which a rank always reads its
// own writes.
//
// The rule of the seam: everything virtual time can see — the order
// and arguments of Elapse, SendDataAsync and Eng.At calls, and the park
// reasons that name metrics and trace spans — is either issued here in
// one fixed order for every transport, or belongs to the transport.
// Nothing here asks which transport it is serving.

// Transport is the cost model under the skeleton. It moves no bytes:
// by the time it sees a transfer, the skeleton has moved them. What it
// schedules, it schedules as records (sim.Event), never as closures:
// the skeleton hands it the record to fire at the end — a get's
// Pending, a read-modify-write's or mutex request's stage at the
// target — and the transport's own stages in between are pooled
// records of its own, so a warm operation allocates nothing.
type Transport interface {
	// Labels returns the strings that identify the transport. The
	// skeleton reads them once, when the world is built.
	Labels() Labels
	// OpCost is the origin's software overhead per operation, charged
	// before the operation's first message.
	OpCost() sim.Time
	// AllocDomain is the registration domain ARMCI memory is allocated
	// in, and whether it comes pre-pinned.
	AllocDomain() (d fabric.Domain, prepinned bool)
	// Put charges shipping x from p's rank to x.Target — the origin's
	// time, occupancy of whatever serves the target — and returns the
	// time the data is remotely complete, which Fence waits for.
	Put(p *sim.Proc, x Xfer) sim.Time
	// Get charges fetching x from x.Target into p's rank and fires h
	// at the time the data would have landed. A transport whose
	// protocol cannot overlap a get waits for that (h.Wait) before
	// returning.
	Get(p *sim.Proc, x Xfer, h *Pending)
	// Serve is the target-side step of a request that carries no
	// payload: it fires ev at target once the request, arriving at
	// arrive, has been serviced. amoBytes is the size of the word an
	// atomic touches, or 0 for a pure control message (mutex traffic).
	Serve(origin, target int, arrive sim.Time, amoBytes int, ev sim.Event)
}

// Labels are a transport's virtual-time-visible strings: its runtime
// name (also the prefix of its errors) and the reasons its ranks park
// with, each of which names a sched.park:<why> metric and trace span.
type Labels struct {
	Name, Wait, Rmw, MutexLock string
}

// DirectWorld is the job-wide state of a direct runtime.
type DirectWorld struct {
	M *fabric.Machine
	// Obs, when non-nil, is told of each surface operation's scope
	// (and whatever the transport reports). Nil-safe.
	Obs *obs.Recorder

	t      Transport
	labels Labels
	dir    Directory[struct{}]
	// lastRemote[origin][target] is the remote-completion horizon
	// Fence waits for.
	lastRemote [][]sim.Time
	mutexes    []*mutexHost
	// unlocks are the Unlock requests in flight, which a rank does not
	// wait for, so it may have several.
	unlocks sim.FreeList[unlockReq]
}

// NewDirectWorld creates the shared state of a direct runtime on
// machine m over transport t.
func NewDirectWorld(m *fabric.Machine, t Transport) *DirectWorld {
	w := &DirectWorld{M: m, t: t, labels: t.Labels(), lastRemote: make([][]sim.Time, m.NRanks)}
	for i := range w.lastRemote {
		w.lastRemote[i] = make([]sim.Time, m.NRanks)
	}
	return w
}

// NumAllocs returns the number of live collective allocations.
func (w *DirectWorld) NumAllocs() int { return w.dir.Len() }

// NumMutexSets returns the number of live mutex sets.
func (w *DirectWorld) NumMutexSets() int { return len(w.mutexes) }

// Direct is one rank's handle on a direct runtime. Collectives ride on
// the rank's MPI handle, never data.
type Direct struct {
	w   *DirectWorld
	mr  *mpi.Rank
	p   *sim.Proc
	dla map[int64]bool // open direct-local-access sections, by VA

	// segs is the segment list of the strided or IOV transfer being
	// issued, reused by the next one: the bytes move and the transport
	// reads the list at issue, so nothing holds it past then.
	segs []Seg

	// The records of the rank's blocking operations, one each: the rank
	// waits for each to finish before it can issue the next, and none
	// is handed to the caller.
	sync Pending // a blocking get's handle
	rmw  rmwReq
	lock lockReq

	// pending is the rest of a chunk that nonblocking gets' handles are
	// carved from, pendingChunk at a time. A handle is never reused, so
	// Wait and Test stay valid on every handle ever returned; a chunk is
	// collected once its handles are dropped.
	pending []Pending
}

// pendingChunk is how many nonblocking-get handles one allocation
// makes.
const pendingChunk = 16

// NewDirect creates the per-rank runtime handle.
func NewDirect(w *DirectWorld, r *mpi.Rank) *Direct {
	return &Direct{w: w, mr: r, p: r.P, dla: map[int64]bool{}}
}

var _ Runtime = (*Direct)(nil)

// Name identifies the implementation.
func (r *Direct) Name() string { return r.w.labels.Name }

// Rank returns the calling world rank.
func (r *Direct) Rank() int { return r.p.ID() }

// Nprocs returns the world size.
func (r *Direct) Nprocs() int { return r.w.M.NRanks }

// Proc returns the simulation context.
func (r *Direct) Proc() *sim.Proc { return r.p }

func (r *Direct) errf(format string, a ...any) error {
	return fmt.Errorf(r.w.labels.Name+": "+format, a...)
}

func (r *Direct) opCost() { r.p.Elapse(r.w.t.OpCost()) }

// region resolves [a, a+n) to the allocation backing it, on any rank.
func (r *Direct) region(a Addr, n int) (*fabric.Region, error) {
	if a.Rank < 0 || a.Rank >= r.Nprocs() {
		return nil, r.errf("address %v names no process", a)
	}
	reg := r.w.M.Space(a.Rank).Find(a.VA, n)
	if reg == nil {
		return nil, r.errf("address %v (+%d) not in any allocation", a, n)
	}
	return reg, nil
}

// Malloc collectively allocates globally accessible memory (world).
func (r *Direct) Malloc(bytes int) ([]Addr, error) {
	world := r.mr.CommWorld()
	return r.mallocOn(world, world.GroupShared(), bytes)
}

// MallocGroup allocates over a group.
func (r *Direct) MallocGroup(g *Group, bytes int) ([]Addr, error) {
	if g == nil {
		return nil, r.errf("MallocGroup with nil group")
	}
	return r.mallocOn(g.Comm, g.Ranks, bytes)
}

func (r *Direct) mallocOn(comm *mpi.Comm, members []int, bytes int) ([]Addr, error) {
	if bytes < 0 {
		return nil, r.errf("Malloc(%d): negative size", bytes)
	}
	var va int64
	if bytes > 0 {
		d, prepinned := r.w.t.AllocDomain()
		va = r.w.M.Space(r.Rank()).Alloc(bytes, d, prepinned).VA
	}
	a := r.w.dir.RegisterCollective(comm, members, va, bytes, func() struct{} { return struct{}{} })
	comm.Barrier()
	// One shared address vector per allocation, read-only to callers.
	return a.Addrs, nil
}

// Free collectively releases an allocation (world).
func (r *Direct) Free(addr Addr) error { return r.freeOn(r.mr.CommWorld(), addr) }

// FreeGroup releases a group allocation.
func (r *Direct) FreeGroup(g *Group, addr Addr) error {
	if g == nil {
		return r.errf("FreeGroup with nil group")
	}
	return r.freeOn(g.Comm, addr)
}

func (r *Direct) freeOn(comm *mpi.Comm, addr Addr) error {
	a, err := r.w.dir.Elect(comm, addr)
	if err != nil {
		return r.errf("%v", err)
	}
	// Release the local slice. The shared record stays until the final
	// barrier: other members may still be looking it up.
	if gr := comm.Rank(); a.Sizes[gr] > 0 {
		if err := r.w.M.Space(r.Rank()).Free(a.Addrs[gr].VA); err != nil {
			return err
		}
	}
	comm.Barrier()
	if comm.Rank() == 0 {
		r.w.dir.Unregister(a)
	}
	return nil
}

// MallocLocal allocates local buffer memory in the transport's domain.
func (r *Direct) MallocLocal(bytes int) Addr {
	d, prepinned := r.w.t.AllocDomain()
	return Addr{Rank: r.Rank(), VA: r.w.M.Space(r.Rank()).Alloc(bytes, d, prepinned).VA}
}

// FreeLocal releases local buffer memory.
func (r *Direct) FreeLocal(addr Addr) error {
	if addr.Rank != r.Rank() {
		return r.errf("FreeLocal of remote address %v", addr)
	}
	return r.w.M.Space(r.Rank()).Free(addr.VA)
}

// LocalBytes exposes local buffer memory on the calling process.
func (r *Direct) LocalBytes(addr Addr, n int) ([]byte, error) {
	if addr.Rank != r.Rank() {
		return nil, r.errf("direct access to remote address %v", addr)
	}
	reg, err := r.region(addr, n)
	if err != nil {
		return nil, err
	}
	return reg.Bytes(addr.VA, n), nil
}

// kind is the direction and landing rule of a transfer.
type kind int

const (
	kPut kind = iota // local source, remote destination, stored
	kGet             // remote source, local destination, stored
	kAcc             // local source, remote destination, summed
)

// ends validates the two sides of one piece of a transfer — neither
// NULL, the local side on the calling rank, the remote side on target,
// float64-sized if it accumulates — and resolves their regions.
func (r *Direct) ends(k kind, src, dst Addr, n, srcSpan, dstSpan, target int) (sreg, dreg *fabric.Region, err error) {
	local, remote := src, dst
	if k == kGet {
		local, remote = dst, src
	}
	switch {
	case src.Nil() || dst.Nil():
		return nil, nil, r.errf("transfer with NULL address (src=%v dst=%v)", src, dst)
	case local.Rank != r.Rank():
		return nil, nil, r.errf("local side %v is not on the calling rank %d", local, r.Rank())
	case remote.Rank != target:
		return nil, nil, r.errf("remote side %v is not on process %d", remote, target)
	case k == kAcc && n%8 != 0:
		return nil, nil, r.errf("accumulate segment size %d not a multiple of 8 (float64)", n)
	}
	if sreg, err = r.region(src, srcSpan); err != nil {
		return nil, nil, err
	}
	dreg, err = r.region(dst, dstSpan)
	return sreg, dreg, err
}

// newXfer fills in what the resolvers share: the landing rule and the
// origin-side region of the last segment.
func newXfer(k kind, scale float64, target, total int, last Seg) Xfer {
	x := Xfer{Target: target, Total: total, Local: last.Sreg, Accumulate: k == kAcc, Scale: scale}
	if k == kGet {
		x.Local = last.Dreg
	}
	return x
}

// contig resolves a contiguous request.
func (r *Direct) contig(k kind, scale float64, src, dst Addr, n int) (Xfer, error) {
	if n < 0 {
		return Xfer{}, r.errf("negative transfer size %d", n)
	}
	target := dst.Rank
	if k == kGet {
		target = src.Rank
	}
	sreg, dreg, err := r.ends(k, src, dst, n, n, n, target)
	if err != nil {
		return Xfer{}, err
	}
	one := Seg{SrcVA: src.VA, DstVA: dst.VA, Sreg: sreg, Dreg: dreg, N: n}
	x := newXfer(k, scale, target, n, one)
	x.One = one
	return x, nil
}

// strided resolves a strided descriptor; regions are resolved once per
// side (a strided transfer stays within one region on each side).
func (r *Direct) strided(k kind, scale float64, s *Strided) (Xfer, error) {
	if err := s.Validate(); err != nil {
		return Xfer{}, err
	}
	target := s.Dst.Rank
	if k == kGet {
		target = s.Src.Rank
	}
	sreg, dreg, err := r.ends(k, s.Src, s.Dst, s.SegBytes(), s.SrcSpan(), s.DstSpan(), target)
	if err != nil {
		return Xfer{}, err
	}
	segs := r.segs[:0]
	s.Iterate(func(so, do int) {
		segs = append(segs, Seg{
			SrcVA: s.Src.VA + int64(so), DstVA: s.Dst.VA + int64(do),
			Sreg: sreg, Dreg: dreg, N: s.SegBytes(),
		})
	})
	r.segs = segs
	x := newXfer(k, scale, target, s.TotalBytes(), segs[len(segs)-1])
	x.Segs = segs
	return x, nil
}

// iov resolves an I/O vector request to proc.
func (r *Direct) iov(k kind, scale float64, iov []GIOV, proc int) (Xfer, error) {
	nsegs := 0
	for i := range iov {
		if err := iov[i].Validate(); err != nil {
			return Xfer{}, fmt.Errorf("armci: iov[%d]: %w", i, err)
		}
		nsegs += iov[i].Len()
	}
	if nsegs == 0 {
		return Xfer{}, nil
	}
	segs := r.segs[:0]
	total := 0
	for gi := range iov {
		g := &iov[gi]
		for i := range g.Src {
			sreg, dreg, err := r.ends(k, g.Src[i], g.Dst[i], g.Bytes, g.Bytes, g.Bytes, proc)
			if err != nil {
				return Xfer{}, fmt.Errorf("iov[%d] segment %d: %w", gi, i, err)
			}
			segs = append(segs, Seg{SrcVA: g.Src[i].VA, DstVA: g.Dst[i].VA, Sreg: sreg, Dreg: dreg, N: g.Bytes})
		}
		total += g.TotalBytes()
	}
	r.segs = segs
	x := newXfer(k, scale, proc, total, segs[nsegs-1])
	x.Segs = segs
	return x, nil
}

// empty reports a request that resolved to no segments at all (an IOV
// with nothing in it, so no origin-side region either): complete at
// once, at no cost.
func (x Xfer) empty() bool { return x.Local == nil }

// completed is the handle of an operation that was locally complete
// when its call returned: every put and accumulate (its bytes moved at
// issue), and empty transfers.
type completed struct{}

func (completed) Wait()      {}
func (completed) Test() bool { return true }

// Pending is the handle of a get in flight, and the event the
// transport fires when the data would have landed: done is set then
// (the bytes themselves moved at issue).
type Pending struct {
	r             *Direct
	done, waiting bool
}

// Fire marks the get landed and resumes the rank if it is waiting.
func (h *Pending) Fire() {
	h.done = true
	if h.waiting {
		h.waiting = false
		h.r.w.M.Eng.Unpark(h.r.p)
	}
}

// Wait blocks until the data has landed in the local buffer.
func (h *Pending) Wait() {
	for !h.done {
		h.waiting = true
		h.r.p.Park(h.r.w.labels.Wait)
	}
}

// Test reports local completion without blocking.
func (h *Pending) Test() bool { return h.done }

// put issues a resolved put or accumulate under op's profiler scope.
// Local completion is immediate; remote completion is noted for Fence.
func (r *Direct) put(op profile.Op, x Xfer, err error) error {
	r.w.Obs.OpBegin(r.Rank(), op)
	defer r.w.Obs.OpEnd(r.Rank())
	if err != nil || x.empty() {
		return err
	}
	r.opCost()
	x.move(r.w.M, x.Target == r.Rank())
	if at := r.w.t.Put(r.p, x); r.w.lastRemote[r.Rank()][x.Target] < at {
		r.w.lastRemote[r.Rank()][x.Target] = at
	}
	return nil
}

// get issues a resolved get under op's profiler scope, tracked by h;
// a nil h is a new handle, for a get the caller waits for later.
func (r *Direct) get(op profile.Op, x Xfer, err error, h *Pending) (Handle, error) {
	r.w.Obs.OpBegin(r.Rank(), op)
	defer r.w.Obs.OpEnd(r.Rank())
	if err != nil {
		return nil, err
	}
	if x.empty() {
		return completed{}, nil
	}
	r.opCost()
	x.move(r.w.M, x.Target == r.Rank())
	if h == nil {
		if len(r.pending) == 0 {
			r.pending = make([]Pending, pendingChunk)
		}
		h, r.pending = &r.pending[0], r.pending[1:]
	}
	*h = Pending{r: r}
	r.w.t.Get(r.p, x, h)
	return h, nil
}

// issued is the nonblocking form of an operation that is locally
// complete at issue; wait is the blocking form of one that is not.
func issued(err error) (Handle, error) {
	if err != nil {
		return nil, err
	}
	return completed{}, nil
}

func wait(h Handle, err error) error {
	if err == nil {
		h.Wait()
	}
	return err
}

// Put copies n bytes from the local src to the global dst; blocking
// local completion (the data has left the source buffer).
func (r *Direct) Put(src, dst Addr, n int) error {
	x, err := r.contig(kPut, 1, src, dst, n)
	return r.put(profile.OpPut, x, err)
}

// Acc applies dst += scale*src on float64 elements; blocking local
// completion, remote completion under Fence.
func (r *Direct) Acc(op AccOp, scale float64, src, dst Addr, n int) error {
	x, err := r.contig(kAcc, scale, src, dst, n)
	return r.put(profile.OpAcc, x, err)
}

// NbGet issues a get; Wait blocks until the data has arrived in the
// local buffer.
func (r *Direct) NbGet(src, dst Addr, n int) (Handle, error) {
	x, err := r.contig(kGet, 1, src, dst, n)
	return r.get(profile.OpGet, x, err, nil)
}

// PutS performs a blocking strided put (Table I notation).
func (r *Direct) PutS(s *Strided) error {
	x, err := r.strided(kPut, 1, s)
	return r.put(profile.OpPutS, x, err)
}

// AccS performs a blocking strided accumulate (dst += scale*src).
func (r *Direct) AccS(op AccOp, scale float64, s *Strided) error {
	x, err := r.strided(kAcc, scale, s)
	return r.put(profile.OpAccS, x, err)
}

// NbGetS is the nonblocking strided get.
func (r *Direct) NbGetS(s *Strided) (Handle, error) {
	x, err := r.strided(kGet, 1, s)
	return r.get(profile.OpGetS, x, err, nil)
}

// PutV performs a generalized I/O vector put to proc.
func (r *Direct) PutV(iov []GIOV, proc int) error {
	x, err := r.iov(kPut, 1, iov, proc)
	return r.put(profile.OpPutV, x, err)
}

// AccV performs a generalized I/O vector accumulate to proc.
func (r *Direct) AccV(op AccOp, scale float64, iov []GIOV, proc int) error {
	x, err := r.iov(kAcc, scale, iov, proc)
	return r.put(profile.OpAccV, x, err)
}

// NbGetV is the nonblocking I/O vector get; Wait blocks until every
// segment has landed.
func (r *Direct) NbGetV(iov []GIOV, proc int) (Handle, error) {
	x, err := r.iov(kGet, 1, iov, proc)
	return r.get(profile.OpGetV, x, err, nil)
}

// The other nine forms follow from those nine. A blocking get is its
// nonblocking form on the rank's own handle, waited for at once.

func (r *Direct) Get(src, dst Addr, n int) error {
	x, err := r.contig(kGet, 1, src, dst, n)
	return wait(r.get(profile.OpGet, x, err, &r.sync))
}
func (r *Direct) GetS(s *Strided) error {
	x, err := r.strided(kGet, 1, s)
	return wait(r.get(profile.OpGetS, x, err, &r.sync))
}
func (r *Direct) GetV(iov []GIOV, proc int) error {
	x, err := r.iov(kGet, 1, iov, proc)
	return wait(r.get(profile.OpGetV, x, err, &r.sync))
}
func (r *Direct) NbPut(src, dst Addr, n int) (Handle, error) { return issued(r.Put(src, dst, n)) }
func (r *Direct) NbPutS(s *Strided) (Handle, error)          { return issued(r.PutS(s)) }
func (r *Direct) NbPutV(iov []GIOV, proc int) (Handle, error) {
	return issued(r.PutV(iov, proc))
}
func (r *Direct) NbAcc(op AccOp, scale float64, src, dst Addr, n int) (Handle, error) {
	return issued(r.Acc(op, scale, src, dst, n))
}
func (r *Direct) NbAccS(op AccOp, scale float64, s *Strided) (Handle, error) {
	return issued(r.AccS(op, scale, s))
}
func (r *Direct) NbAccV(op AccOp, scale float64, iov []GIOV, proc int) (Handle, error) {
	return issued(r.AccV(op, scale, iov, proc))
}

// Fence blocks until all operations this process issued to proc have
// completed remotely.
func (r *Direct) Fence(proc int) {
	r.w.M.SleepUntil(r.p, r.w.lastRemote[r.Rank()][proc])
}

// AllFence fences every target.
func (r *Direct) AllFence() {
	var last sim.Time
	for _, t := range r.w.lastRemote[r.Rank()] {
		if t > last {
			last = t
		}
	}
	r.w.M.SleepUntil(r.p, last)
}

// Barrier fences all communication and synchronizes all processes.
func (r *Direct) Barrier() {
	r.AllFence()
	r.mr.CommWorld().Barrier()
}

// Rmw performs an atomic read-modify-write in one network round trip:
// the request is serviced at the target by whatever the transport puts
// there (NIC atomics, the data server), which also serializes it.
func (r *Direct) Rmw(op RmwOp, addr Addr, operand int64) (int64, error) {
	r.w.Obs.OpBegin(r.Rank(), profile.OpRmw)
	defer r.w.Obs.OpEnd(r.Rank())
	if addr.Nil() {
		return 0, r.errf("Rmw on NULL address")
	}
	if !op.Valid() {
		return 0, r.errf("unknown RMW op %v", op)
	}
	reg, err := r.region(addr, 8)
	if err != nil {
		return 0, err
	}
	r.opCost()
	q := &r.rmw
	*q = rmwReq{r: r, op: op, reg: reg, addr: addr, operand: operand}
	arrive := r.w.M.SendDataAsync(r.Rank(), addr.Rank, 0, fabric.XferOpt{NoNIC: true})
	r.w.t.Serve(r.Rank(), addr.Rank, arrive, 8, q)
	for !q.done {
		r.p.Park(r.w.labels.Rmw)
	}
	return q.old, nil
}

// rmwReq is a rank's read-modify-write in flight, as the two events it
// is scheduled as: served at the target, it applies the op and times
// the reply; the reply resumes the rank, which reads old.
type rmwReq struct {
	r             *Direct
	op            RmwOp
	reg           *fabric.Region
	addr          Addr
	operand, old  int64
	replied, done bool
}

func (q *rmwReq) Fire() {
	m, me := q.r.w.M, q.r.Rank()
	if q.replied {
		q.done = true
		m.Eng.Unpark(q.r.p)
		return
	}
	b := q.reg.Bytes(q.addr.VA, 8)
	q.old = int64(binary.LittleEndian.Uint64(b))
	switch q.op {
	case FetchAndAdd:
		binary.LittleEndian.PutUint64(b, uint64(q.old+q.operand))
	case Swap:
		binary.LittleEndian.PutUint64(b, uint64(q.operand))
	}
	q.replied = true
	m.Eng.AtEvent(m.SendDataAsync(q.addr.Rank, me, 0, fabric.XferOpt{NoNIC: true}), q)
}

// mutexHost is the target-side state of one mutex set: a FIFO per
// mutex, arbitrated wherever the transport serves control requests.
type mutexHost struct {
	counts []int // mutexes hosted per rank
	// Keyed by {host rank, mutex index}.
	held  map[[2]int]bool
	queue map[[2]int][]*lockReq
}

// mutexSet is the per-rank handle.
type mutexSet struct {
	r    *Direct
	host *mutexHost
}

// CreateMutexes collectively creates n mutexes hosted on the calling
// process; rank 0 builds the shared host record, the others adopt it.
func (r *Direct) CreateMutexes(n int) (Mutexes, error) {
	if n < 0 {
		return nil, r.errf("CreateMutexes(%d)", n)
	}
	world := r.mr.CommWorld()
	if counts := world.GatherI64(0, []int64{int64(n)}); counts != nil {
		h := &mutexHost{
			counts: make([]int, len(counts)),
			held:   map[[2]int]bool{},
			queue:  map[[2]int][]*lockReq{},
		}
		for i, c := range counts {
			h.counts[i] = int(c)
		}
		r.w.mutexes = append(r.w.mutexes, h)
	}
	world.Barrier()
	return &mutexSet{r: r, host: r.w.mutexes[len(r.w.mutexes)-1]}, nil
}

// request sends a mutex control message to proc and fires ev there
// once the transport has serviced it.
func (s *mutexSet) request(proc int, ev sim.Event) {
	r := s.r
	r.opCost()
	arrive := r.w.M.SendDataAsync(r.Rank(), proc, 0, fabric.XferOpt{NoNIC: true})
	r.w.t.Serve(r.Rank(), proc, arrive, 0, ev)
}

// Lock acquires mutex mtx hosted on proc, blocking in a host-side FIFO.
func (s *mutexSet) Lock(mtx, proc int) {
	r := s.r
	if mtx < 0 || mtx >= s.host.counts[proc] {
		panic(fmt.Sprintf("%s: Lock(%d,%d): host has %d mutexes", r.Name(), mtx, proc, s.host.counts[proc]))
	}
	q := &r.lock
	*q = lockReq{s: s, key: [2]int{proc, mtx}}
	s.request(proc, q)
	for !q.got {
		r.p.Park(r.w.labels.MutexLock)
	}
}

// lockReq is a rank's Lock in flight, as the events it is scheduled
// as: served at the host, it takes the mutex and times the grant, or
// joins the mutex's FIFO until an Unlock forwards the grant; the grant
// resumes the rank. A forwarded grant names the rank that released the
// mutex, and when (for the critical path).
type lockReq struct {
	s       *mutexSet
	key     [2]int // {host rank, mutex index}
	granted bool   // the next firing is the grant arriving
	got     bool

	forwarded bool
	by        int
	relAt     sim.Time
}

func (q *lockReq) Fire() {
	r := q.s.r
	m := r.w.M
	switch {
	case q.granted:
		if q.forwarded {
			m.Obs.WakeGrant(r.Rank(), q.by, q.relAt)
		}
		q.got = true
		m.Eng.Unpark(r.p)
	case !q.s.host.held[q.key]:
		q.s.host.held[q.key] = true
		q.granted = true
		m.Eng.AtEvent(m.SendDataAsync(q.key[0], r.Rank(), 0, fabric.XferOpt{NoNIC: true}), q)
	default:
		q.s.host.queue[q.key] = append(q.s.host.queue[q.key], q)
	}
}

// Unlock releases mutex mtx on proc, forwarding to the next waiter.
func (s *mutexSet) Unlock(mtx, proc int) {
	q := s.r.w.unlocks.Get()
	*q = unlockReq{s: s, key: [2]int{proc, mtx}}
	s.request(proc, q)
}

// unlockReq is an Unlock served at the host: it frees the mutex, or
// forwards it to the FIFO's next waiter, whose grant it times. Unlock
// does not wait for it, so it is drawn from the world's free list and
// filed again once served.
type unlockReq struct {
	s   *mutexSet
	key [2]int
}

func (q *unlockReq) Fire() {
	s, key := q.s, q.key
	s.r.w.unlocks.Put(q)
	que := s.host.queue[key]
	if len(que) == 0 {
		s.host.held[key] = false
		return
	}
	next := que[0]
	s.host.queue[key] = que[1:]
	// Lock stays held; ownership forwards to the next waiter.
	m := s.r.w.M
	next.granted, next.forwarded, next.by, next.relAt = true, true, s.r.Rank(), m.Eng.Now()
	m.Eng.AtEvent(m.SendDataAsync(key[0], next.s.r.Rank(), 0, fabric.XferOpt{NoNIC: true}), next)
}

// Destroy collectively frees the mutex set; rank 0 drops the host.
func (s *mutexSet) Destroy() error {
	w := s.r.w
	s.r.mr.CommWorld().Barrier()
	if s.r.Rank() == 0 {
		for i, h := range w.mutexes {
			if h == s.host {
				w.mutexes = append(w.mutexes[:i], w.mutexes[i+1:]...)
				break
			}
		}
	}
	return nil
}

// AccessBegin grants direct load/store access to local global memory.
// The direct runtimes assume cache-coherent memory and need no
// synchronization here; the call exists for API parity with the DLA
// extension (SectionVIII.A).
func (r *Direct) AccessBegin(addr Addr, n int) ([]byte, error) {
	mem, err := r.LocalBytes(addr, n)
	if err == nil {
		r.dla[addr.VA] = true
	}
	return mem, err
}

// AccessEnd completes a direct access section.
func (r *Direct) AccessEnd(addr Addr) error {
	if !r.dla[addr.VA] {
		return r.errf("AccessEnd without AccessBegin at %v", addr)
	}
	delete(r.dla, addr.VA)
	return nil
}

// SetAccessMode accepts the SectionVIII.A hint; with nothing to relax,
// it only synchronizes.
func (r *Direct) SetAccessMode(mode AccessMode, addr Addr) error {
	r.Barrier()
	return nil
}

// GroupCreateCollective creates a processor group; all world processes
// call. Non-members receive nil.
func (r *Direct) GroupCreateCollective(members []int) (*Group, error) {
	return GroupCreateCollective(r.mr, members)
}

// GroupCreate creates a processor group noncollectively: only members
// call.
func (r *Direct) GroupCreate(members []int) (*Group, error) { return GroupCreate(r.mr, members) }
