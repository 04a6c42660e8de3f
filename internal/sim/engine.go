// Package sim provides a deterministic discrete-event simulation engine
// in which "ranks" (processes of a simulated parallel machine) execute
// under a cooperative scheduler. Exactly one flow of control — the
// dispatcher or a single rank — is active at any instant, so every run
// is bit-reproducible: virtual time advances only when the event heap
// is popped, and ties are broken by insertion sequence.
//
// Higher layers (fabric, MPI, ARMCI) are built from three primitives:
// Elapse (charge local virtual time), Park/Unpark (block a rank until a
// condition is signalled), and At (schedule a handler at a future virtual
// time). Handlers run in event context — the dispatcher's, or a parked
// rank's inline loop — and must not block.
//
// Every rank of a job shares one event heap, one runnable FIFO and one
// clock. The dispatcher is a plain loop on one worker goroutine: it
// pops the runnable FIFO or the event heap and resumes the chosen rank.
// A rank body is a runtime coroutine (iter.Pull), created lazily at
// first dispatch; a park that cannot finish inline yields back to the
// dispatcher. Resume and yield are coroutine switches on the same M and
// P — no channel, no wake of an idle P — so a hand-off costs ~100 ns at
// any GOMAXPROCS, and a job's live goroutine count is the number of
// simultaneously parked ranks, not N. Proc records live in one slab.
//
// The engine's own wall-clock cost is kept off the simulated results'
// critical path by three mechanisms: events are value-typed in the heap
// slice (the popped slots double as a free list, so scheduling allocates
// nothing once the heap has grown), pure time-advance wakeups carry the
// parked Proc instead of a closure, and a parked rank runs the event
// loop itself: while no other rank is runnable, Park and Elapse step
// through the due events on the parking rank's coroutine and resume it
// without a switch if it is the rank woken, as by a lock grant of its
// own making. Counters, tie-breaks and every virtual-time result are the
// dispatcher's, whichever loop fires an event.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// FromSeconds converts floating-point seconds to a virtual duration,
// rounding to the nearest nanosecond and never rounding a positive
// duration down to zero.
func FromSeconds(s float64) Time {
	t := Time(s*1e9 + 0.5)
	if t <= 0 && s > 0 {
		t = 1
	}
	return t
}

// String formats the time in human units.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is one scheduled occurrence. What happens when it fires is ev:
// a pure wakeup (Elapse) is the parked Proc itself, a handler scheduled
// with At is its func, and a caller's record scheduled with AtEvent is
// that record — none of the three allocates at scheduling time.
type event struct {
	at  Time
	seq int64
	ev  Event
}

// Event is a scheduled occurrence that is its own record: Fire runs in
// event context (the dispatcher's or a parked rank's inline loop, never
// blocking), like an At handler. A type that schedules the same kind of
// occurrence many times — a message landing in a mailbox, an epoch's
// grant — implements it on the record it already holds, so scheduling
// allocates nothing, where each At closure is one more object.
type Event interface{ Fire() }

// funcEvent adapts an At handler. A func value is pointer-shaped, so
// storing one in the Event interface does not allocate.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// wakeup is a parked Proc as the event that makes it runnable.
type wakeup Proc

func (w *wakeup) Fire() {
	p := (*Proc)(w)
	p.e.Unpark(p)
}

// FreeList is a job-scoped LIFO of the records a layer schedules as
// events and takes back once they have fired. It is unsynchronized for
// the reason the Engine is (one flow of control at a time), and
// deterministic because the event order is: the same record serves the
// same operation in every run, and allocation counts repeat exactly.
// The zero value is an empty list.
type FreeList[T any] struct{ free []*T }

// Get returns a record, zero only if newly allocated: the caller
// overwrites it whole.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x, so it holds no reference while it waits, and files it.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq).
// Events live inline in the slice: pushes reuse the capacity freed by
// pops, so steady-state scheduling performs no allocation.
type eventHeap []event

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot so its Event is collectable
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s[l].before(s[smallest]) {
			smallest = l
		}
		if r < n && s[r].before(s[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is the execution context of one simulated rank. All Proc methods
// must be called from the flow of control running that rank's body.
type Proc struct {
	id    int
	e     *Engine
	state procState
	why   string // what the proc is parked on, for deadlock reports

	// The rank's coroutine, created at first dispatch: the dispatcher
	// calls next to resume the body and stop to unwind it during a
	// drain; the body calls yield to park.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// ID returns the rank's id in [0, N).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Observer receives scheduling callbacks from the engine, giving
// observability layers access to the virtual clock at the moments
// ranks block and resume. Callbacks run under the cooperative
// scheduler (never concurrently) and must not block or re-enter the
// engine. A park that finishes inline still reports its park/resume
// pair, so observers see the same sequence either way.
type Observer interface {
	// RankParked fires when a rank blocks; why is the park reason.
	RankParked(rank int, why string, at Time)
	// RankResumed fires when a previously parked rank resumes running.
	RankResumed(rank int, at Time)
}

// FinishObserver is an optional Observer extension: when the installed
// observer also implements it, RankFinished fires as each rank's body
// returns normally (never during an abnormal drain), carrying the
// rank's completion time — the job makespan is the maximum over ranks.
// The callback runs under the cooperative scheduler, like the others.
type FinishObserver interface {
	RankFinished(rank int, at Time)
}

// Engine runs a fixed set of ranks to completion under a virtual
// clock. Exactly one flow of control — the dispatcher or one rank's
// coroutine — touches its fields at any instant, so none need locks.
type Engine struct {
	now    Time
	seq    int64
	events eventHeap
	procs  []*Proc // ascending rank id
	body   func(*Proc)
	stats  Stats
	obs    Observer

	// Runnable ring buffer (FIFO). A proc appears at most once, so a
	// fixed capacity of len(procs) suffices and pushes never allocate.
	runq   []*Proc
	rqHead int
	rqLen  int

	alive      int
	lastFinish Time  // clock when the last rank finished
	failure    error // first rank panic/Goexit, handler panic, deadlock or time limit

	// draining is set when the run is ending abnormally (rank panic or
	// Goexit, deadlock, or time limit): every started, unfinished rank
	// is stopped once, in rank order, and unwinds via a drainSignal
	// panic so its coroutine exits before Run returns.
	draining bool

	// noInline makes every park yield to the dispatcher; the golden
	// tests use it to prove both paths produce identical schedules.
	noInline bool

	// MaxTime, when nonzero, aborts Run with ErrTimeLimit once the
	// virtual clock passes it — a watchdog against virtual livelock
	// (event chains that never let the ranks finish).
	MaxTime Time
}

// ErrTimeLimit is returned by Run when the virtual clock exceeds
// Engine.MaxTime.
type ErrTimeLimit struct{ At Time }

func (e *ErrTimeLimit) Error() string {
	return fmt.Sprintf("sim: virtual time limit exceeded at %v", e.At)
}

// Stats aggregates engine-level counters, useful in tests and benchmarks.
// The inline loop maintains them as the dispatcher does: an Elapse that
// advances the clock inline still counts one park and one event.
type Stats struct {
	Events    int64 // events dispatched
	Parks     int64 // times any rank parked
	FinalTime Time  // virtual time when Run returned
}

// NewEngine creates an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time. It is safe to call from event
// handlers and rank bodies alike.
func (e *Engine) Now() Time { return e.now }

// Stats returns engine counters. Valid after Run has returned.
func (e *Engine) Stats() Stats { return e.stats }

// Observe installs a scheduling observer (nil to remove). Call before
// Run.
func (e *Engine) Observe(o Observer) { e.obs = o }

// At schedules fn to run at absolute virtual time t (clamped to now).
// It may be called from a rank body or from another handler. Handlers
// run in event context and must not block.
func (e *Engine) At(t Time, fn func()) { e.AtEvent(t, funcEvent(fn)) }

// AtEvent is At for a caller-held record: ev.Fire runs at t.
func (e *Engine) AtEvent(t Time, ev Event) {
	if e.draining {
		return // unwinding cleanup; the run is over
	}
	e.schedule(t, ev)
}

// schedule pushes ev at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, ev Event) {
	e.seq++
	e.events.push(event{at: max(t, e.now), seq: e.seq, ev: ev})
}

func (e *Engine) pushRunnable(p *Proc) {
	i := e.rqHead + e.rqLen
	if i >= len(e.runq) {
		i -= len(e.runq)
	}
	e.runq[i] = p
	e.rqLen++
}

func (e *Engine) popRunnable() *Proc {
	p := e.runq[e.rqHead]
	e.runq[e.rqHead] = nil
	e.rqHead++
	if e.rqHead == len(e.runq) {
		e.rqHead = 0
	}
	e.rqLen--
	return p
}

// step advances the clock to ev, the next event in (at, seq) order, and
// counts and fires it, or fails the run past MaxTime. It is the one
// place an event is dispatched, by the dispatcher or by a parked rank's
// inline loop; a held wake passes through it with nothing to fire.
func (e *Engine) step(ev event) {
	e.now = max(e.now, ev.at)
	if e.MaxTime > 0 && e.now > e.MaxTime {
		e.failure = &ErrTimeLimit{At: e.now}
		return
	}
	e.stats.Events++
	if ev.ev != nil {
		ev.ev.Fire()
	}
}

// drainSignal is the panic value used to unwind a blocked rank body
// when the run ends abnormally; runBody recognizes and swallows it.
type drainSignal struct{}

// Elapse blocks the calling rank for d nanoseconds of virtual time. Its
// wake is held off the heap with a sequence number reserved now, so it
// ties as if scheduled now; it is pushed only if the rank yields.
func (p *Proc) Elapse(d Time) {
	if d <= 0 {
		return
	}
	e := p.e
	e.seq++
	wake := event{at: e.now + d, seq: e.seq, ev: (*wakeup)(p)}
	if !e.wakeNext(wake) {
		p.park("elapse", wake)
		return
	}
	// Nothing runs before the wake: park and wake here, at half the host
	// cost of a call through park.
	e.stats.Parks++
	if e.obs != nil {
		e.obs.RankParked(p.id, "elapse", e.now)
	}
	e.step(event{at: wake.at})
	if e.obs != nil {
		e.obs.RankResumed(p.id, e.now)
	}
}

// Park blocks the calling rank until another component calls Unpark on
// it. The why string is reported if the simulation deadlocks.
func (p *Proc) Park(why string) { p.park(why, event{}) }

// park blocks p until it is woken; wake, if set, is its held wake. The
// rank yields to the dispatcher only if its inline loop cannot resume it.
func (p *Proc) park(why string, wake event) {
	e := p.e
	if e.draining {
		panic(drainSignal{})
	}
	p.state = stateParked
	p.why = why
	e.stats.Parks++
	if e.obs != nil {
		e.obs.RankParked(p.id, why, e.now)
	}
	if !e.inline(p, wake) && !p.yield(struct{}{}) {
		panic(drainSignal{}) // stopped by a drain
	}
	p.state = stateRunning
	p.why = ""
	if e.obs != nil {
		e.obs.RankResumed(p.id, e.now)
	}
}

// inline is the dispatcher's loop run on the coroutine of p, just
// parked: while no rank is runnable and the run has not failed, it steps
// through the heap's events that precede p's held wake, then the wake.
// It reports whether p runs next; if not, the wake is pushed and p must
// yield, to another rank, a deadlock report or a drain. A handler that
// panics or calls runtime.Goexit here is on p's stack: one deferred
// check records its failure, and p unwinds as a drain unwinds it (a
// Goexit then kills the dispatcher's worker, as a rank's Goexit does).
func (e *Engine) inline(p *Proc, wake event) bool {
	if e.headNext(wake) {
		done := false
		defer func() {
			if !done {
				r := recover()
				if e.failure == nil {
					e.failure = handlerError(r)
				}
				e.draining = true
				if r != nil {
					panic(drainSignal{})
				}
			}
		}()
		for e.headNext(wake) {
			e.step(e.events.pop())
		}
		done = true
	}
	if wake.ev != nil {
		if e.wakeNext(wake) {
			e.step(event{at: wake.at})
			return true
		}
		e.events.push(wake)
	}
	if e.rqLen > 0 && e.runq[e.rqHead] == p {
		e.popRunnable()
		return true
	}
	return false
}

// headNext and wakeNext report whether the heap's head, or else the held
// wake, runs next inline: no rank is runnable, the run has not failed
// (so is not draining), and nothing precedes it. A wake past MaxTime is
// left to the dispatcher.
func (e *Engine) headNext(wake event) bool {
	return !e.noInline && e.rqLen == 0 && e.failure == nil && len(e.events) > 0 &&
		(wake.ev == nil || e.events[0].before(wake))
}

func (e *Engine) wakeNext(wake event) bool {
	return !e.noInline && e.rqLen == 0 && e.failure == nil &&
		(len(e.events) == 0 || wake.before(e.events[0])) && (e.MaxTime == 0 || wake.at <= e.MaxTime)
}

// handlerError is the failure of an event handler that panicked with r,
// or called runtime.Goexit if r is nil.
func handlerError(r any) error {
	if r != nil {
		return fmt.Errorf("sim: event handler panicked: %v", r)
	}
	return errors.New("sim: event handler exited via runtime.Goexit")
}

// Unpark marks a parked rank runnable. It may be called from event
// handlers or from the body of another (currently active) rank. Calling
// Unpark on a rank that is not parked or already runnable is a bug in
// the caller and panics, with one exception: unparking a rank that is
// already runnable is ignored, which lets multiple events wake the same
// waiter.
func (e *Engine) Unpark(p *Proc) {
	if e.draining {
		// Unwinding rank bodies may signal peers from their deferred
		// cleanup; the run is over, so wakes are dropped (every blocked
		// rank is stopped exactly once by the drain itself).
		return
	}
	switch p.state {
	case stateParked:
		p.state = stateRunnable
		e.pushRunnable(p)
	case stateRunnable:
		// Already queued; nothing to do.
	case stateDone:
		panic(fmt.Sprintf("sim: unpark of finished rank %d", p.id))
	default:
		panic(fmt.Sprintf("sim: unpark of running rank %d", p.id))
	}
}

// Deadlock is returned (wrapped) by Run when every rank is parked and no
// events remain.
type Deadlock struct {
	Time    Time
	Waiting map[int]string // rank id -> park reason
}

func (d *Deadlock) Error() string {
	s := fmt.Sprintf("sim: deadlock at t=%v:", d.Time)
	for _, id := range slices.Sorted(maps.Keys(d.Waiting)) {
		s += fmt.Sprintf(" rank %d parked on %q;", id, d.Waiting[id])
	}
	return s
}

// Run creates n ranks and executes body(p) on each, returning once all
// ranks have finished. It returns an error if the simulation deadlocks,
// exceeds MaxTime, or any rank body panics or calls runtime.Goexit; in
// every case — success or failure — all rank coroutines and the
// dispatcher's worker have exited by the time Run returns (abnormal
// ends drain the blocked ranks deterministically, in rank order). Run
// may be called once per engine. Events scheduled before Run keep their
// sequence numbers.
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("sim: Run needs n > 0, got %d", n)
	}
	e.body = body
	e.procs = make([]*Proc, n)
	e.runq = make([]*Proc, n)
	slab := make([]Proc, n)
	for i := range slab {
		p := &slab[i]
		p.id, p.e, p.state = i, e, stateRunnable
		e.procs[i] = p
		e.pushRunnable(p)
	}
	e.alive = n
	done := make(chan struct{})
	go e.work(done)
	<-done
	return e.failure
}

// work is the dispatcher's worker goroutine; it closes done when the
// run is over. A runtime.Goexit in a rank body kills that rank's
// coroutine and iter.Pull re-raises it in whoever resumed the rank —
// this goroutine — and a Goexit cannot be recovered; nor could Run's
// caller survive one, which is why the dispatcher is not run on Run's
// own goroutine. So the worker is expendable: runBody has already
// recorded the failure, the dying worker hands the run to a fresh one,
// and that one drains as for a rank panic. A panic or Goexit in an
// event handler gets the same treatment instead of killing the process.
func (e *Engine) work(done chan struct{}) {
	finished := false
	defer func() {
		if finished {
			close(done)
			return
		}
		if r := recover(); e.failure == nil {
			e.failure = handlerError(r)
		}
		go e.work(done)
	}()
	e.loop()
	finished = true
}

// loop is the dispatcher: run ranks until none is runnable, then pop
// events, until every rank has finished or the run fails. It is
// re-entrant from the top, so a replacement worker picks up wherever a
// dead one stopped.
func (e *Engine) loop() {
	for {
		switch {
		case e.failure != nil:
			e.draining = true
			e.drain()
			return
		case e.rqLen > 0:
			e.resume(e.popRunnable())
		case e.alive == 0:
			// The run ends exactly when its last rank finishes:
			// remaining events are dropped.
			e.stats.FinalTime = e.lastFinish
			return
		case len(e.events) == 0:
			e.failure = e.deadlockError()
		default:
			e.step(e.events.pop())
		}
	}
}

// drain ends an abnormal run without leaking: every started, unfinished
// rank is parked in yield (never-started ranks have no coroutine), so
// each is stopped in rank order and unwinds via drainSignal before the
// next. Engine statistics and observers see nothing: the drain happens
// after the run's last observable instant, and FinalTime stays zero.
// States cannot regress during a drain (Unpark is a no-op), so a
// replacement worker restarting the walk skips what is already done.
func (e *Engine) drain() {
	for _, p := range e.procs {
		if p.stop != nil && p.state != stateDone {
			p.stop()
		}
	}
}

// deadlockError builds the Deadlock report: no events remain and every
// living rank is parked.
func (e *Engine) deadlockError() *Deadlock {
	d := &Deadlock{Time: e.now, Waiting: map[int]string{}}
	for _, p := range e.procs {
		if p.state == stateParked {
			d.Waiting[p.id] = p.why
		}
	}
	return d
}

// resume hands control to p until it parks or finishes, creating its
// coroutine at first dispatch.
func (e *Engine) resume(p *Proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			e.runBody(p)
		})
	}
	p.next()
}

// runBody executes one rank body on its coroutine and records how it
// ended. A Goexit cannot be recovered: it is recorded here, kills the
// coroutine, and iter.Pull re-raises it in the dispatcher — see work
// for how the run survives that.
func (e *Engine) runBody(p *Proc) {
	returned := false
	defer func() {
		r := recover()
		if _, drained := r.(drainSignal); !drained && e.failure == nil {
			if r != nil {
				e.failure = fmt.Errorf("sim: rank %d panicked: %v", p.id, r)
			} else if !returned { // every t.Fatal inside a body is one
				e.failure = fmt.Errorf("sim: rank %d exited via runtime.Goexit", p.id)
			}
		}
		p.state = stateDone
		e.alive--
		if e.alive == 0 {
			e.lastFinish = e.now
		}
		if returned && !e.draining {
			if f, ok := e.obs.(FinishObserver); ok {
				f.RankFinished(p.id, e.now)
			}
		}
	}()
	p.state = stateRunning
	e.body(p)
	returned = true
}
