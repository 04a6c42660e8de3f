package fabric

import (
	"math/bits"
	"sync"
)

// Payload buffers and region backings. A payload buffer is the snapshot
// an operation takes of its source bytes at issue, held until the bytes
// land. Only operations whose caller gets the source back before then
// take one: a request-based put or accumulate, and a copy on the
// shared-memory route; a transfer whose target is the caller's own rank
// takes one too, as its two sides may overlap. An epoch-completed RMA
// put lands from its origin, a remote get copies target to origin, and
// a direct runtime (native, the data server) moves every transfer
// straight from source to destination at issue, with no payload buffer
// at all. Each has one
// owner and one lifetime: the issuing site draws it with GetBuf, the
// event that applies it hands it back with PutBuf. A region's backing
// store (mem.go) is drawn the same way on first write and handed back
// when the region is freed, and so are an application's scratch
// buffers: nwchem's task tiles are drawn for one task claim and handed
// back before the rank asks for the next.
//
// The free list a job draws from is its Machine's own while the job
// lives: one flow of control at a time uses it (a job runs on one
// engine), so GetBuf and PutBuf take no lock. When
// the job ends, Retire hands the list — with every backing still live —
// to a process-wide stash, and the next NewMachine adopts it, the way
// native ARMCI registers its pools once and reuses them across
// operations instead of remaking them. The stash's mutex is taken only
// there. A list belongs to at most one live machine; the stash holds at
// most as many lists as jobs were ever live at once (one per sweep
// worker, one in a sequential program). A machine that is never retired
// takes its list with it to the garbage collector.
//
// What stays deterministic: virtual time and every artifact, always —
// no cost-model call looks at the pool. With one job at a time, which
// buffers hit and which miss repeats exactly from run to run, which a
// sync.Pool (drained by GC at arbitrary points) would not give. When
// jobs run concurrently, which retired list a job adopts from the
// stash depends on which job finished first, so host allocation counts
// can differ by whole backings from run to run. A FreeList fixes the
// order instead: a chain of jobs that run one after another hands one
// list down, each job's machine adopting it from the last one's
// retirement, so what a job finds depends only on the jobs before it
// on the chain.
//
// Buffers are filed by capacity class, eight classes per octave: class
// c holds (8 + c%8) << (c/8) bytes (8, 9, …, 15, 16, 18, …, 30, 32,
// 36, …). A request is served from the smallest class that covers it,
// so a recycled buffer is never too small, and a buffer made fresh is
// made at that class's size, at most 12.5 % over the request (a
// power-of-two class wastes up to half: a 5.3 MB Fig. 6 block took
// 8 MiB). A buffer handed back is filed under the largest class its
// capacity covers, so PutBuf accepts any slice, pooled or not; one
// under 8 bytes covers no class and is left to the garbage collector.
// A request of a multiple of 8 bytes is served from a class whose size
// is a multiple of 8 too, so its buffer, made at that size or split
// from one twice it, starts 8-aligned (mpi.View).
//
// When the request's class is empty, one free buffer of the class an
// octave above — exactly twice the size — is split into two
// capacity-capped halves: one is served, the other filed. A run of jobs
// whose blocks halve from one job to the next (Fig. 6's process counts,
// smallest first) then draws each job's backings from the last job's
// instead of faulting in new pages, and clearing a recycled buffer
// costs a fraction of a first touch. The split stops at one octave:
// reaching further up would let a run of small requests carve up a
// large backing (a 32 MiB window) that the next large request then has
// to make again. Neighbouring classes are not searched and the halves
// are never merged back.

// classesPerOctave is how many capacity classes split each power of
// two.
const classesPerOctave = 8

// bufPool is one free list, indexed by capacity class.
type bufPool struct {
	free [classesPerOctave * bits.UintSize][][]byte
}

// classSize is the capacity of class c.
func classSize(c int) int {
	return (classesPerOctave + c%classesPerOctave) << (c / classesPerOctave)
}

// classFor returns the smallest class whose size is at least n > 0:
// the one above the largest class below n.
func classFor(n int) int { return classOf(n-1) + 1 }

// classOf returns the largest class whose size is at most k, or -1 if
// k is below the smallest class. Shifted down to [8, 16), k reads as
// 8 plus the class's place in its octave.
func classOf(k int) int {
	if k < classesPerOctave {
		return -1
	}
	shift := bits.Len(uint(k)) - bits.Len(classesPerOctave)
	return shift*classesPerOctave + int(uint(k)>>shift) - classesPerOctave
}

// stash holds the free lists of retired machines.
var stash struct {
	sync.Mutex
	pools []*bufPool
}

// adoptPool takes a retired free list from the stash, or makes an
// empty one.
func adoptPool() *bufPool {
	stash.Lock()
	defer stash.Unlock()
	n := len(stash.pools)
	if n == 0 {
		return &bufPool{}
	}
	p := stash.pools[n-1]
	stash.pools[n-1] = nil
	stash.pools = stash.pools[:n-1]
	return p
}

// A FreeList is a free list handed down a chain of jobs that run one
// at a time: FreeList.NewMachine gives it to the new machine, and that
// machine's Retire gives it back for the next. A FreeList serves one
// live machine at a time. The zero of *FreeList, nil, is the stash:
// (*FreeList)(nil).NewMachine is NewMachine.
type FreeList struct {
	bufs *bufPool // nil while a machine holds it, or once closed
}

// NewFreeList takes a retired list from the stash, or makes an empty
// one.
func NewFreeList() *FreeList { return &FreeList{bufs: adoptPool()} }

// Close hands the list to the stash. Call it once the last machine
// made on l has retired; closing twice is a no-op.
func (l *FreeList) Close() {
	if l.bufs == nil {
		return
	}
	stashPool(l.bufs)
	l.bufs = nil
}

// stashPool hands a free list to the stash.
func stashPool(p *bufPool) {
	stash.Lock()
	stash.pools = append(stash.pools, p)
	stash.Unlock()
}

// Retire ends the machine's job: every live region's backing goes back
// to the machine's free list, and the list goes back to the FreeList
// the machine was made on, or to the stash for the next machine. Call
// it once Eng.Run has returned — every rank has exited and no event
// can fire — and touch none of the job's memory afterwards; counters
// and tables stay readable. Retiring twice is a no-op.
func (m *Machine) Retire() {
	if m.bufs == nil {
		return
	}
	for _, s := range m.spaces {
		for r := range s.regions.All() {
			r.V.release()
		}
	}
	p := m.bufs
	m.bufs = nil
	if m.fl != nil {
		m.fl.bufs = p
		return
	}
	stashPool(p)
}

// BufHook, when non-nil, observes every buffer GetBuf hands out
// (put == false) and every buffer PutBuf receives, at full capacity,
// before it is filed (put == true) — payloads and region backings
// alike. It exists for tests only and is set only from _test.go files:
// the use-after-release suites poison released buffers through it, and
// the release-accounting tests watch for a buffer released twice.
var BufHook func(b []byte, put bool)

// GetBuf returns an n-byte payload buffer whose contents are
// unspecified; the caller overwrites all of it. Ownership passes to
// the caller until the buffer is handed to PutBuf (a buffer that is
// never handed back is simply garbage-collected).
func (m *Machine) GetBuf(n int) []byte {
	b, _ := m.getBuf(n)
	return b
}

// getBuf is GetBuf that also reports whether b was made just now, and
// so already reads as zero.
func (m *Machine) getBuf(n int) (b []byte, fresh bool) {
	if n <= 0 {
		return nil, true
	}
	class := classFor(n)
	free := &m.bufs.free
	if l := free[class]; len(l) > 0 {
		b = l[len(l)-1][:n]
		l[len(l)-1] = nil
		free[class] = l[:len(l)-1]
	} else if up := class + classesPerOctave; up < len(free) && len(free[up]) > 0 {
		// Split one buffer of the class an octave up: serve its first
		// half, file the second. Capping both keeps them disjoint.
		l := free[up]
		half := classSize(class)
		whole := l[len(l)-1]
		l[len(l)-1] = nil
		free[up] = l[:len(l)-1]
		b = whole[:n:half]
		free[class] = append(free[class], whole[half:2*half:2*half])
	} else {
		b, fresh = make([]byte, n, classSize(class)), true
	}
	if BufHook != nil {
		BufHook(b[:cap(b)], false)
	}
	return b, fresh
}

// PutBuf gives b to the machine for reuse. The caller must hold no
// other reference to it: the next GetBuf may hand it to another
// operation.
func (m *Machine) PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if BufHook != nil {
		BufHook(b, true)
	}
	if class := classOf(len(b)); class >= 0 {
		m.bufs.free[class] = append(m.bufs.free[class], b)
	}
}
