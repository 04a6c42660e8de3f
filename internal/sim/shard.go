// Shards: conservative time-window execution of the simulator across
// host cores.
//
// Each shard owns a private event heap, runnable FIFO, virtual clock,
// sequence counter and dispatcher, and runs on its own worker
// goroutine. Shards synchronize through a window barrier run by the
// coordinator (the goroutine that called Run):
//
//	windowStart = min over shards of the earliest undispatched event
//	windowEnd   = windowStart + Lookahead
//
// Inside a window every shard dispatches only events with at < end, so
// no shard's clock can pass end. A cross-shard event must therefore be
// scheduled at t >= the sender's windowEnd (any delay >= Lookahead
// guarantees this); it cannot land in the receiver's past, which is the
// classic conservative-PDES argument. Cross-shard events travel through
// per-shard-pair outboxes, are swapped by the coordinator at the
// barrier, and each receiving shard merges its inbox into its heap in a
// total order that is a pure function of virtual time and the
// partition (see ingest) before the next window opens: repeat runs are
// byte-identical regardless of host scheduling.
//
// With a single shard windowEnd is unbounded, no event ever crosses a
// shard boundary, and the dispatcher reaches the barrier exactly once,
// when the run ends: no per-window channel traffic. That is the
// configuration the full communication stacks use (their layers mutate
// remote-rank state synchronously — NIC clocks, lock queues, window
// memory — which no partition can confine). Multi-shard runs require a
// shard-confined workload: ranks touch only their own shard's state,
// and all cross-shard interaction flows through AtRank with at least
// Lookahead of virtual delay.
//
// Where several shards differ from one, by design:
//
//   - One shard stops the instant its last rank finishes and drops any
//     still-scheduled events. Several only observe "all ranks done" at
//     a window barrier, so events inside the final window may still
//     dispatch. Workloads that end quiescent are unaffected, and the
//     equivalence tests use such workloads.
//   - MaxTime aborts at the first clock crossing per shard; when
//     several shards cross in one window, the lowest shard id's error
//     wins (deterministically), where one shard reports the temporally
//     first.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// xev is a cross-shard event in flight: the Event plus the ordering
// key it will be merged under at the receiving shard.
type xev struct {
	at   Time
	sent Time  // sending shard's clock at scheduling time
	seq  int64 // sending shard's outbox sequence
	src  int   // sending shard id
	ev   Event
}

// cmd is the coordinator's answer to a shard waiting at the barrier.
type cmd int

const (
	cmdWindow cmd = iota // open the next window and keep dispatching
	cmdDrain             // the run is over abnormally; unwind coroutines
	cmdExit              // the run is over normally; release the worker
)

// shard is one partition's private engine state plus its barrier
// endpoints. Exactly one flow of control — the dispatcher or one rank's
// coroutine — runs on a shard at any instant, and the coordinator
// touches a shard only while its worker waits at the barrier, so none
// of these fields need locks; the barrier channels provide the
// happens-before edges between shard workers and the coordinator.
type shard struct {
	e  *Engine
	id int

	now    Time
	seq    int64
	events eventHeap
	procs  []*Proc // this shard's ranks, ascending rank id

	// Runnable ring buffer (FIFO). A proc appears at most once, so a
	// fixed capacity of len(procs) suffices and pushes never allocate.
	runq   []*Proc
	rqHead int
	rqLen  int

	alive      int
	lastFinish Time // clock when the shard's last rank finished
	stats      Stats
	obs        Observer
	failure    error // first rank panic/Goexit, handler panic, or time limit

	// windowEnd is the exclusive bound on dispatchable event times in
	// the current window; MaxTime means unbounded.
	windowEnd Time

	outSeq int64
	outbox [][]xev // by destination shard; emptied by the coordinator
	inbox  []xev   // arrivals for the next window; filled by the coordinator

	cmd      chan cmd      // coordinator -> shard barrier response
	done     chan struct{} // shard -> coordinator: worker has exited
	released bool          // the dispatcher returned; the worker may exit
}

// schedule pushes ev at absolute time t (clamped to now).
func (sh *shard) schedule(t Time, ev Event) {
	sh.seq++
	sh.events.push(event{at: max(t, sh.now), seq: sh.seq, ev: ev})
}

func (sh *shard) pushRunnable(p *Proc) {
	i := sh.rqHead + sh.rqLen
	if i >= len(sh.runq) {
		i -= len(sh.runq)
	}
	sh.runq[i] = p
	sh.rqLen++
}

func (sh *shard) popRunnable() *Proc {
	p := sh.runq[sh.rqHead]
	sh.runq[sh.rqHead] = nil
	sh.rqHead++
	if sh.rqHead == len(sh.runq) {
		sh.rqHead = 0
	}
	sh.rqLen--
	return p
}

// fire runs one popped event; the caller has advanced the clock to it.
func (sh *shard) fire(ev event) {
	sh.stats.Events++
	ev.ev.Fire()
}

// work is a shard's worker goroutine: it runs the dispatcher until the
// coordinator releases it. A runtime.Goexit in a rank body kills that
// rank's coroutine and iter.Pull re-raises it in whoever resumed the
// rank — this goroutine — and a Goexit cannot be recovered. So the
// worker is expendable: runBody has already recorded the failure, the
// dying worker hands the shard to a fresh one, and that one carries the
// failure to the barrier and drains as for a rank panic. A panic in an
// event handler gets the same treatment instead of killing the process.
func (sh *shard) work() {
	defer func() {
		if sh.released {
			sh.done <- struct{}{}
			return
		}
		if r := recover(); r != nil && sh.failure == nil {
			sh.failure = fmt.Errorf("sim: event handler panicked: %v", r)
		}
		if sh.failure == nil {
			sh.failure = errors.New("sim: event handler exited via runtime.Goexit")
		}
		go sh.work()
	}()
	sh.loop()
	sh.released = true
}

// loop is the dispatcher: run ranks until none is runnable, then pop
// events. When nothing is dispatchable below windowEnd it carries the
// shard into the barrier and resumes when the coordinator opens the
// next window. It is re-entrant from the top, so a replacement worker
// picks up wherever a dead one stopped.
func (sh *shard) loop() {
	e := sh.e
	for {
		switch {
		case e.draining:
			sh.drain()
			return
		case sh.failure == nil && sh.rqLen > 0:
			sh.resume(sh.popRunnable())
		// A lone shard ends exactly when its last rank finishes:
		// remaining events are dropped.
		case sh.failure != nil || (len(e.shards) == 1 && sh.alive == 0) ||
			len(sh.events) == 0 || sh.events[0].at >= sh.windowEnd:
			if !sh.barrier() {
				return
			}
		default:
			ev := sh.events.pop()
			if ev.at > sh.now {
				sh.now = ev.at
			}
			if e.MaxTime > 0 && sh.now > e.MaxTime {
				sh.failure = &ErrTimeLimit{At: sh.now}
			} else {
				sh.fire(ev)
			}
		}
	}
}

// drain ends an abnormal run on this shard without leaking: every
// started, unfinished rank is parked in yield (never-started ranks have
// no coroutine), so each is stopped in rank order and unwinds via
// drainSignal before the next. Engine statistics and observers see
// nothing: the drain happens after the run's last observable instant.
// States cannot regress during a drain (Unpark is a no-op), so a
// replacement worker restarting the walk skips what is already done.
func (sh *shard) drain() {
	for _, p := range sh.procs {
		if p.stop != nil && p.state != stateDone {
			p.stop()
		}
	}
}

// barrier tells the coordinator the shard has nothing left to dispatch
// in this window and blocks the worker until it answers. True means
// "keep dispatching" (a new window opened, or a drain was initiated and
// the loop top will pick it up); false releases the worker for good.
func (sh *shard) barrier() bool {
	sh.e.arrived <- struct{}{}
	switch <-sh.cmd {
	case cmdWindow:
		sh.ingest()
		return true
	case cmdDrain:
		return true // e.draining is set; the loop top drains
	default: // cmdExit
		return false
	}
}

// ingest merges one window's cross-shard arrivals into the heap. The
// sort key (at, sent, src, seq) is a total order — seq is unique per
// source shard — so the merged sequence numbering is deterministic.
// Ordering by virtual send time first reproduces sequential creation
// order whenever the sending instants differ; only events scheduled at
// identical (at, sent) from different shards can tie, and those
// resolve by shard id.
func (sh *shard) ingest() {
	slices.SortFunc(sh.inbox, func(a, b xev) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.sent, b.sent),
			cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for _, x := range sh.inbox {
		sh.schedule(x.at, x.ev)
	}
	clear(sh.inbox) // the heap owns the events now
	sh.inbox = sh.inbox[:0]
}

// ShardClock is a per-shard virtual clock view, usable as an observer
// clock before, during, and after Run (it resolves lazily, so it can
// be constructed before the shards exist).
type ShardClock struct {
	e *Engine
	s int
}

// Now returns the shard's current virtual time (zero until Run
// materializes the shard).
func (c ShardClock) Now() Time {
	if c.s < len(c.e.shards) {
		return c.e.shards[c.s].now
	}
	return 0
}

// ShardClock returns the clock view of shard s.
func (e *Engine) ShardClock(s int) ShardClock { return ShardClock{e: e, s: s} }

// ShardOf reports which shard rank i lands on under the engine's
// configuration (Shards/Partition), independent of whether the run has
// started. n is the rank count Run will be called with.
func (e *Engine) ShardOf(i, n int) int {
	if e.Partition != nil {
		return e.Partition[i]
	}
	return i * e.shardCount(n) / n
}

// shardCount resolves the effective shard count for n ranks.
func (e *Engine) shardCount(n int) int {
	return min(max(e.Shards, 1), n)
}

// Run creates n ranks and executes body(p) on each, returning once all
// ranks have finished. It returns an error if the simulation deadlocks,
// exceeds MaxTime, or any rank body panics or calls runtime.Goexit; in
// every case — success or failure — all rank coroutines and shard
// workers have exited by the time Run returns (abnormal ends drain the
// blocked ranks deterministically, in rank order). Run may be called
// once per engine.
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("sim: Run needs n > 0, got %d", n)
	}
	k := e.shardCount(n)
	if e.Partition != nil {
		if len(e.Partition) != n {
			return fmt.Errorf("sim: Partition has %d entries for %d ranks", len(e.Partition), n)
		}
		for i, s := range e.Partition {
			if s < 0 || s >= k {
				return fmt.Errorf("sim: Partition[%d] = %d outside [0, %d)", i, s, k)
			}
		}
	}
	if k > 1 {
		if e.Lookahead <= 0 {
			return fmt.Errorf("sim: %d shards require Lookahead > 0", k)
		}
		if e.obs != nil && e.ShardObservers == nil {
			return fmt.Errorf("sim: a single Observer would race across %d shards; use ShardObservers", k)
		}
		if len(e.shards[0].events) > 0 {
			return fmt.Errorf("sim: events scheduled before a multi-shard Run have no home shard; use AtRank after Run starts")
		}
	}

	e.body = body
	e.arrived = make(chan struct{}, k)
	// Events scheduled before Run sit on shards[0] and keep their
	// sequence numbers.
	for s := 1; s < k; s++ {
		e.shards = append(e.shards, &shard{e: e, id: s})
	}
	for s, sh := range e.shards {
		sh.outbox = make([][]xev, k)
		sh.cmd = make(chan cmd, 1)
		sh.done = make(chan struct{})
		if k == 1 && e.obs != nil {
			sh.obs = e.obs
		} else if e.ShardObservers != nil {
			sh.obs = e.ShardObservers(s)
		}
		if k > 1 {
			// The first window starts at 0, where every rank begins.
			sh.windowEnd = e.Lookahead
		}
	}
	e.procs = make([]*Proc, n)
	slab := make([]Proc, n)
	for i := range slab {
		p := &slab[i]
		p.id = i
		p.sh = e.shards[e.ShardOf(i, n)]
		p.state = stateRunnable
		e.procs[i] = p
		p.sh.procs = append(p.sh.procs, p)
	}
	for _, sh := range e.shards {
		sh.alive = len(sh.procs)
		sh.runq = make([]*Proc, len(sh.procs))
		for _, p := range sh.procs {
			sh.pushRunnable(p)
		}
		go sh.work()
	}
	return e.coordinate()
}

// coordinate runs the window barrier: wait for every shard, move
// outboxes to inboxes, and decide — finish, drain, or open the next
// window at the global minimum next event time (window hopping: idle
// gaps are skipped in one step).
func (e *Engine) coordinate() error {
	for {
		for range e.shards {
			<-e.arrived
		}
		alive := 0
		next := MaxTime // earliest undispatched event anywhere
		var failure error
		for _, sh := range e.shards {
			alive += sh.alive
			if failure == nil {
				failure = sh.failure // lowest shard id wins, deterministically
			}
			if len(sh.events) > 0 {
				next = min(next, sh.events[0].at)
			}
			for d, evs := range sh.outbox {
				for _, x := range evs {
					next = min(next, x.at)
				}
				e.shards[d].inbox = append(e.shards[d].inbox, evs...)
				clear(evs) // the inbox owns the events now
				sh.outbox[d] = evs[:0]
			}
		}
		switch {
		case failure != nil:
			return e.finish(cmdDrain, failure)
		case alive == 0:
			for _, sh := range e.shards {
				e.stats.FinalTime = max(e.stats.FinalTime, sh.lastFinish)
			}
			return e.finish(cmdExit, nil)
		case next == MaxTime:
			return e.finish(cmdDrain, e.deadlockError())
		case e.MaxTime > 0 && next > e.MaxTime:
			// The earliest event anywhere lies beyond the limit; one
			// shard would dispatch it and abort at its timestamp.
			return e.finish(cmdDrain, &ErrTimeLimit{At: next})
		}
		for _, sh := range e.shards {
			if len(e.shards) > 1 {
				sh.windowEnd = next + e.Lookahead
				if sh.windowEnd < next {
					sh.windowEnd = MaxTime // overflow clamp
				}
			}
			sh.cmd <- cmdWindow
		}
	}
}

// finish ends the run: shards are released (or, on an abnormal end,
// drained) one at a time in shard id order, each unwinding its blocked
// coroutines in rank order — so the full drain sequence is
// deterministic and every goroutine has exited when Run returns. Every
// event is dispatched and every park counted by exactly one shard, so
// the summed counters equal the one-shard counts for equivalent
// schedules. FinalTime stays zero on an abnormal end.
func (e *Engine) finish(c cmd, err error) error {
	e.draining = c == cmdDrain
	for _, sh := range e.shards {
		sh.cmd <- c
		<-sh.done
		e.stats.Events += sh.stats.Events
		e.stats.Parks += sh.stats.Parks
	}
	return err
}

// deadlockError builds the Deadlock report: no shard has events, every
// living rank is parked. Time is the latest shard clock.
func (e *Engine) deadlockError() *Deadlock {
	d := &Deadlock{Waiting: map[int]string{}}
	for _, sh := range e.shards {
		d.Time = max(d.Time, sh.now)
	}
	for _, p := range e.procs {
		if p.state == stateParked {
			d.Waiting[p.id] = p.why
		}
	}
	return d
}
