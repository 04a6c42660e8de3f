package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/spans"
)

// Addr is a global address in the simulated machine: a rank and a
// virtual address within that rank's address space. This mirrors
// ARMCI's <process id, address> global address form.
type Addr struct {
	Rank int
	VA   int64
}

// Nil reports whether the address is the null address.
func (a Addr) Nil() bool { return a.VA == 0 }

// Add offsets the address by n bytes.
func (a Addr) Add(n int) Addr { return Addr{Rank: a.Rank, VA: a.VA + int64(n)} }

func (a Addr) String() string { return fmt.Sprintf("<%d,0x%x>", a.Rank, a.VA) }

// Domain identifies a registration domain — a runtime system that pins
// memory with the (simulated) network device. The paper's Figure 5
// hinges on ARMCI and MPI each maintaining separate registration state.
type Domain int

const (
	DomainNone  Domain = iota // plain allocation, not pre-pinned anywhere
	DomainARMCI               // allocated/pinned by the native ARMCI runtime
	DomainMPI                 // allocated/pinned by the MPI runtime
)

func (d Domain) String() string {
	switch d {
	case DomainARMCI:
		return "ARMCI"
	case DomainMPI:
		return "MPI"
	default:
		return "none"
	}
}

// Region is an allocated range of a rank's address space with backing
// storage. Data is addressed relative to VA and is materialized lazily
// on first access: a region that is allocated but never touched (mutex
// byte vectors, scratch buffers of idle ranks) costs no host memory,
// which is what lets 16k-rank jobs fit. Access the storage through
// Bytes or Backing, never the Data field directly — it is nil until
// the first touch.
//
// The job draws the backing from its machine's free list (bufs.go) and
// clears a recycled one, so a region reads as zero however its bytes
// were used before; it hands the backing back when the region is
// freed, or when the machine retires with the region still live. A
// backing is the region's alone in between: nothing may keep a slice
// of it past Free.
type Region struct {
	Rank int
	VA   int64
	Len  int
	Data []byte

	m *Machine // whose free list backs the region

	// AllocDomain is the runtime whose allocator produced the region
	// (DomainNone for plain make()-style buffers).
	AllocDomain Domain
	// prepinned regions were registered at allocation time by their
	// allocating domain (e.g. ARMCI's pre-pinned pools).
	prepinned bool
	// pinned has bit d set once domain d has on-demand registered the
	// region.
	pinned uint8
}

// Contains reports whether [va, va+n) falls inside the region.
func (r *Region) Contains(va int64, n int) bool {
	return va >= r.VA && va+int64(n) <= r.VA+int64(r.Len)
}

// Bytes returns the backing slice for [va, va+n), materializing the
// region's storage on first touch.
func (r *Region) Bytes(va int64, n int) []byte {
	if !r.Contains(va, n) {
		panic(fmt.Sprintf("fabric: access [0x%x,+%d) outside region [0x%x,+%d) on rank %d",
			va, n, r.VA, r.Len, r.Rank))
	}
	off := va - r.VA
	return r.Backing()[off : off+int64(n)]
}

// Backing returns the region's full backing slice, materializing it on
// first touch. Freshly materialized storage is zeroed, exactly as an
// eager allocation would be.
func (r *Region) Backing() []byte {
	if r.Data == nil && r.Len > 0 {
		r.materialize()
	}
	return r.Data
}

// materialize draws the backing and clears it if it was recycled; a
// fresh one already reads as zero and is left for its first writer to
// fault in. It is kept out of line so Backing stays inlinable, into
// Bytes too, on the hot path.
//
//go:noinline
func (r *Region) materialize() {
	b, fresh := r.m.getBuf(r.Len)
	if !fresh {
		clear(b)
	}
	r.Data = b
}

// SwapBacking makes b the region's backing and returns the one it had,
// nil if the region was never touched. It lends a buffer the region
// does not own: the caller must hand the old backing back with a
// second SwapBacking before the region is freed or the machine
// retires, and may touch only the bytes b covers in between. Address,
// length and registration state are the region's throughout, so
// nothing a cost model reads changes.
func (r *Region) SwapBacking(b []byte) []byte {
	old := r.Data
	r.Data = b
	return old
}

// release hands the backing, if any, back to the machine's free list.
func (r *Region) release() {
	r.m.PutBuf(r.Data)
	r.Data = nil
}

// PinnedFor reports whether the region is usable for direct DMA by the
// given domain without further registration.
func (r *Region) PinnedFor(d Domain) bool {
	if r.prepinned && r.AllocDomain == d {
		return true
	}
	return r.pinned&(1<<d) != 0
}

// AddrSpace is one rank's virtual address space: a bump allocator over
// non-overlapping regions, indexed by VA. VA 0 is reserved as NULL.
type AddrSpace struct {
	m       *Machine
	rank    int
	next    int64
	regions spans.Index[*Region]
}

const addrSpaceBase = 0x1000

// Alloc carves a new region of n bytes (n >= 0; a zero-length region
// still receives a distinct address so frees can be matched).
func (s *AddrSpace) Alloc(n int, d Domain, prepinned bool) *Region {
	if n < 0 {
		panic("fabric: Alloc with negative size")
	}
	r := &Region{
		m:           s.m,
		Rank:        s.rank,
		VA:          s.next,
		Len:         n,
		AllocDomain: d,
		prepinned:   prepinned,
	}
	// Round the next base to a page-ish boundary to keep regions
	// disjoint even for zero-length allocations.
	adv := int64(n)
	if adv < 64 {
		adv = 64
	}
	s.next += adv + 64
	s.regions.Insert(r.VA, r.VA+int64(n), r)
	return r
}

// Free releases a region and hands its backing back to the machine.
// The address must be a region base.
func (s *AddrSpace) Free(va int64) error {
	r, ok := s.regions.Remove(va)
	if !ok {
		return fmt.Errorf("fabric: Free of unknown region 0x%x on rank %d", va, s.rank)
	}
	r.release()
	return nil
}

// Find returns the region containing [va, va+n), or nil.
func (s *AddrSpace) Find(va int64, n int) *Region {
	if r, ok := s.regions.At(va); ok && r.V.Contains(va, n) {
		return r.V
	}
	return nil
}

// Len returns the number of live regions.
func (s *AddrSpace) Len() int { return s.regions.Len() }

// Unpin evicts region r from domain d's registration cache, so the
// next use pays the on-demand registration cost again (used by the
// Figure 5 interoperability benchmark to measure the first-touch
// path). Pre-pinned regions of d's own allocator cannot be evicted.
func (m *Machine) Unpin(r *Region, d Domain) {
	r.pinned &^= 1 << d
}

// PinCost returns the registration cost for domain d to use region r
// for the byte range [va, va+n), and marks the pages registered. The
// cost is zero when the region is pre-pinned for d or already
// registered. Registration is modeled at region granularity (a region
// is the unit ARMCI/MPI hand to the device), with cost proportional to
// the page count of the whole region, as on-demand registration caches
// do.
func (m *Machine) PinCost(r *Region, d Domain) sim.Time {
	if r.PinnedFor(d) {
		return 0
	}
	pages := (r.Len + m.Par.PageSize - 1) / m.Par.PageSize
	if pages < 1 {
		pages = 1
	}
	r.pinned |= 1 << d
	m.PagesPinned += int64(pages)
	return sim.FromSeconds(float64(pages) * m.Par.PinPageNs / 1e9)
}
