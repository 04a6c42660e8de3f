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
// store (mem.go) is drawn the same way on first touch and handed back
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
// sync.Pool (drained by GC at arbitrary points) would not give. In a
// sweep, which retired list a job adopts depends on which job finished
// first, so host allocation counts can differ by a few misses.
//
// Buffers are filed by power-of-two capacity class. A request is
// served from the class that covers it, so a recycled buffer is never
// too small; a buffer handed back is filed under the largest class its
// capacity covers, so PutBuf accepts any slice, pooled or not.
//
// When the request's class is empty, one free buffer of the class
// directly above is split into two capacity-capped halves: one is
// served, the other filed. A run of jobs whose blocks halve from one
// job to the next (Fig. 6's process counts, smallest first) then draws
// each job's backings from the last job's instead of faulting in new
// pages, and clearing a recycled buffer costs a fraction of a first
// touch. The split stops at one class: reaching further up would let a
// run of small requests carve up a large backing (a 32 MiB window) that
// the next large request then has to make again. The halves are never
// merged back.

// bufPool is one free list, indexed by capacity class.
type bufPool struct {
	free [bits.UintSize][][]byte
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

// Retire ends the machine's job: every live region's backing goes back
// to the machine's free list, and the list goes to the stash for the
// next machine. Call it once Eng.Run has returned — every rank has
// exited and no event can fire — and touch none of the job's memory
// afterwards; counters and tables stay readable. Retiring twice is a
// no-op.
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
	stash.Lock()
	stash.pools = append(stash.pools, p)
	stash.Unlock()
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
	class := bits.Len(uint(n - 1))
	free := &m.bufs.free
	if l := free[class]; len(l) > 0 {
		b = l[len(l)-1][:n]
		l[len(l)-1] = nil
		free[class] = l[:len(l)-1]
	} else if class+1 < len(free) && len(free[class+1]) > 0 {
		// Split one buffer of the class above: serve its first half,
		// file the second. Capping both keeps them disjoint.
		l := free[class+1]
		half := 1 << class
		whole := l[len(l)-1]
		l[len(l)-1] = nil
		free[class+1] = l[:len(l)-1]
		b = whole[:n:half]
		free[class] = append(free[class], whole[half:2*half:2*half])
	} else {
		b, fresh = make([]byte, n, 1<<class), true
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
	class := bits.Len(uint(len(b))) - 1
	m.bufs.free[class] = append(m.bufs.free[class], b)
}
