package armci

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mpi"
	"repro/internal/spans"
)

// Allocation is one collective ARMCI_Malloc as the translation table
// records it: the member processes, each member's slice of the
// allocation, and whatever the owning runtime hangs off it (Ext: MPI
// windows and the RMW mutex for armcimpi and dartmpi, nothing for the
// runtimes that move bytes themselves).
type Allocation[T any] struct {
	ID    int
	Group []int  // world ranks, ascending; group rank -> world rank
	Addrs []Addr // base address per group rank (Nil for a zero-size slice)
	Sizes []int  // slice length per group rank
	Ext   T
}

// RankOf translates a world rank to its group rank in the allocation,
// or -1 for a non-member.
func (a *Allocation[T]) RankOf(world int) int {
	if i := sort.SearchInts(a.Group, world); i < len(a.Group) && a.Group[i] == world {
		return i
	}
	return -1
}

// Directory is the SectionV.B translation table: every live allocation
// of a job, indexed by id and, per world rank, as a span index of the
// rank's slices. Slices on one rank are disjoint because each rank's
// allocator hands out disjoint VA ranges, so an address resolves by
// binary search in O(log #allocations). One member of each collective
// allocation registers it; all members look it up.
type Directory[T any] struct {
	ids    map[int]*Allocation[T]
	byRank []spans.Index[slot[T]] // the slices on each world rank
	nextID int
}

// slot is one rank-local slice of an allocation: the allocation and the
// slice's group rank on that world rank.
type slot[T any] struct {
	a  *Allocation[T]
	gr int
}

// Register enters an allocation over group (retained, not copied) with
// the given per-member slices and returns its record. Zero-size slices
// are not indexed: no address resolves to them.
func (d *Directory[T]) Register(group []int, addrs []Addr, sizes []int, ext T) *Allocation[T] {
	a := &Allocation[T]{ID: d.nextID, Group: group, Addrs: addrs, Sizes: sizes, Ext: ext}
	d.nextID++
	if d.ids == nil {
		d.ids = map[int]*Allocation[T]{}
	}
	d.ids[a.ID] = a
	for gr, world := range group {
		if sizes[gr] == 0 {
			continue
		}
		for len(d.byRank) <= world {
			d.byRank = append(d.byRank, spans.Index[slot[T]]{})
		}
		lo := addrs[gr].VA
		d.byRank[world].Insert(lo, lo+int64(sizes[gr]), slot[T]{a, gr})
	}
	return a
}

// RegisterCollective is Register for a runtime whose members all need
// the shared entry back: every member of comm contributes the base VA
// and size of its slice, comm's first member enters the allocation
// (with the extension newExt builds), and its id is broadcast so all
// members attach to one entry. The base addresses travel by
// gather-at-root, so the N-entry address table is built once,
// read-only and shared, instead of on every rank; members (for a world
// allocation, the job-wide shared group slice) is retained from the
// first member, not copied. A zero-size slice has the Nil address.
func (d *Directory[T]) RegisterCollective(comm *mpi.Comm, members []int, va int64, bytes int, newExt func() T) *Allocation[T] {
	vas := comm.GatherI64(0, []int64{va, int64(bytes)})
	var id int
	if comm.Rank() == 0 {
		addrs, sizes := make([]Addr, len(members)), make([]int, len(members))
		for i, world := range members {
			sizes[i] = int(vas[2*i+1])
			if sizes[i] > 0 {
				addrs[i] = Addr{Rank: world, VA: vas[2*i]}
			}
		}
		id = d.Register(members, addrs, sizes, newExt()).ID
	}
	return d.ByID(int(comm.BcastI64(0, []int64{int64(id)})[0]))
}

// Elect is the leader election that opens a collective free
// (SectionV.B): members of comm holding a zero-size slice pass the Nil
// address, the highest world rank holding a slice wins an allreduce and
// broadcasts its base VA, and every member resolves that one key. So a
// free that names no allocation, or an allocation over another group
// than comm's, fails with the same error on every member before any of
// them tears anything down. On success the caller's slice is group
// rank comm.Rank().
func (d *Directory[T]) Elect(comm *mpi.Comm, addr Addr) (*Allocation[T], error) {
	mine := int64(-1)
	if !addr.Nil() {
		mine = int64(comm.GroupShared()[comm.Rank()])
	}
	leader := int(comm.AllreduceI64(mpi.OpMax, []int64{mine})[0])
	if leader < 0 {
		return nil, errors.New("Free: all processes passed NULL")
	}
	// Only the leader's VA is sent; the others' is overwritten.
	key := Addr{Rank: leader, VA: comm.BcastI64(comm.RankOfWorld(leader), []int64{addr.VA})[0]}
	a, _, _, ok := d.Find(key)
	if !ok {
		return nil, fmt.Errorf("Free(%v): no allocation at the leader's address", key)
	}
	if !slices.Equal(a.Group, comm.GroupShared()) {
		return nil, fmt.Errorf("Free(%v): the allocation's group is not the communicator's", key)
	}
	return a, nil
}

// Unregister removes an allocation from the table.
func (d *Directory[T]) Unregister(a *Allocation[T]) {
	delete(d.ids, a.ID)
	for gr, world := range a.Group {
		if a.Sizes[gr] > 0 {
			d.byRank[world].Remove(a.Addrs[gr].VA)
		}
	}
}

// at returns the slice on addr.Rank that contains addr.VA.
func (d *Directory[T]) at(addr Addr) (spans.Span[slot[T]], bool) {
	if addr.Rank < 0 || addr.Rank >= len(d.byRank) {
		return spans.Span[slot[T]]{}, false
	}
	return d.byRank[addr.Rank].At(addr.VA)
}

// Find locates the allocation whose slice on addr.Rank contains the
// address and returns it with the slice's group rank (the window rank,
// for an MPI-backed runtime) and the byte displacement into the slice.
func (d *Directory[T]) Find(addr Addr) (a *Allocation[T], gr, disp int, ok bool) {
	if s, ok := d.at(addr); ok {
		return s.V.a, s.V.gr, int(addr.VA - s.Lo), true
	}
	return nil, 0, 0, false
}

// ByID returns a registered allocation, or nil.
func (d *Directory[T]) ByID(id int) *Allocation[T] { return d.ids[id] }

// Len returns the number of live allocations (leak assertions).
func (d *Directory[T]) Len() int { return len(d.ids) }
