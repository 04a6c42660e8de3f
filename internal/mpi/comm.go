package mpi

import (
	"fmt"
	"sort"
)

// Comm is one rank's view of a communicator: an ordered group of world
// ranks, this rank's position in it, and a context id that isolates
// its point-to-point traffic. Comm values are per-rank; ranks of the
// same communicator share only the context id.
type Comm struct {
	r     *Rank
	cid   int
	group []int // comm rank -> world rank
	rank  int   // this rank's comm rank

	collSeq int // per-rank collective sequence number for tag isolation
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Rank returns the calling rank's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// GroupShared returns the communicator's world-rank group without
// copying. The slice is shared (for CommWorld, by every rank of the
// job) and must be treated as read-only; use it where a per-rank copy
// of an N-entry table would multiply to N² at scale.
func (c *Comm) GroupShared() []int { return c.group }

// RankOfWorld translates a world rank to a rank in this communicator,
// or -1 when the process is not a member.
func (c *Comm) RankOfWorld(world int) int { return c.rankOfWorld(world) }

const selfCidBase = 1 << 28

// Self returns a single-member communicator containing only the
// calling rank (MPI_COMM_SELF). Its context id is derived from the
// world rank, so no allocation handshake is needed.
func (r *Rank) Self() *Comm {
	return &Comm{r: r, cid: selfCidBase + r.ID(), group: []int{r.ID()}, rank: 0}
}

// allocCids hands out n fresh context ids from the world counter. The
// cooperative scheduler makes the increment race-free; consistency
// across ranks is achieved by having one rank allocate and broadcast.
func (w *World) allocCids(n int) int {
	base := w.nextCid
	w.nextCid += n
	return base
}

// Dup returns a new communicator with the same group and a fresh
// context id. Collective over the communicator.
func (c *Comm) Dup() *Comm {
	return c.Split(0, c.rank)
}

// Split partitions the communicator by color; ranks passing the same
// color form a new communicator ordered by (key, rank). A negative
// color (MPI_UNDEFINED) yields a nil communicator for that rank.
// Collective over the communicator.
//
// Rank 0 gathers every (color, key) pair, computes the partition once,
// allocates one context id per color, and sends each member its (cid,
// rank, group) — so the N-entry pair table exists on one rank, and the
// exchange costs O(n) messages rather than the n(n−1) of an allgather.
// The identity partition (every rank, parent order — what Dup
// produces) is detected and answered with a broadcast alone, sharing
// the parent's group slice.
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()
	type ck struct{ color, key, rank int }
	all := c.GatherI64(0, []int64{int64(color), int64(key)})
	var pairs []ck
	var colors []int
	hdr := make([]int64, 2)
	if c.rank == 0 {
		pairs = make([]ck, n)
		colorSet := map[int]bool{}
		for i := range pairs {
			pairs[i] = ck{color: int(all[2*i]), key: int(all[2*i+1]), rank: i}
			if pairs[i].color >= 0 {
				colorSet[pairs[i].color] = true
			}
		}
		colors = make([]int, 0, len(colorSet))
		for col := range colorSet {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		base := c.r.W.allocCids(len(colors))
		identity := int64(0)
		if len(colors) == 1 && pairs[0].color >= 0 {
			identity = 1
			for i := range pairs {
				if pairs[i].color != pairs[0].color || (i > 0 && pairs[i].key < pairs[i-1].key) {
					identity = 0
					break
				}
			}
		}
		hdr[0], hdr[1] = int64(base), identity
	}
	hdr = c.BcastI64(0, hdr)
	base, identity := int(hdr[0]), hdr[1] == 1
	if identity {
		return &Comm{r: c.r, cid: base, group: c.group, rank: c.rank}
	}
	c.collSeq++
	tag := c.collTag(0)
	if c.rank != 0 {
		data, _ := c.Recv(0, tag)
		var sub *Comm
		if v := View[int64](data); v[0] >= 0 {
			sub = &Comm{r: c.r, cid: int(v[0]), group: i64sToInts(v[2:]), rank: int(v[1])}
		}
		c.r.W.M.PutBuf(data)
		return sub
	}
	// Root: build each color's group ordered by (key, rank) and send
	// every member its view.
	byColor := map[int][]ck{}
	for _, p := range pairs {
		if p.color >= 0 {
			byColor[p.color] = append(byColor[p.color], p)
		}
	}
	var mine *Comm
	for idx, col := range colors {
		members := byColor[col]
		sort.Slice(members, func(i, j int) bool {
			if members[i].key != members[j].key {
				return members[i].key < members[j].key
			}
			return members[i].rank < members[j].rank
		})
		group := make([]int, len(members))
		msg := make([]int64, 2+len(group)) // every member's view; Send copies it
		for i, m := range members {
			group[i] = c.group[m.rank]
			msg[2+i] = int64(group[i])
		}
		for i, m := range members {
			if m.rank == 0 {
				mine = &Comm{r: c.r, cid: base + idx, group: group, rank: i}
				continue
			}
			msg[0], msg[1] = int64(base+idx), int64(i)
			c.Send(m.rank, tag, Bytes(msg))
		}
	}
	for _, p := range pairs {
		if p.color < 0 && p.rank != 0 {
			c.Send(p.rank, tag, Bytes([]int64{-1}))
		}
	}
	return mine
}

// Intercomm is one rank's view of an intercommunicator: a local
// intracommunicator plus the remote side's world-rank group.
type Intercomm struct {
	local  *Comm
	remote []int // remote group as world ranks
	cid    int   // context id agreed between the two sides
	low    bool  // whether the local group orders first in a merge
}

// IntercommCreate builds an intercommunicator between the group of
// local (an intracommunicator of the caller) and the group of the
// remote leader, using peer (a communicator containing both leaders)
// for the leader handshake. localLeader is a rank in local;
// remoteLeader is a rank in peer. Collective over local on both sides.
func IntercommCreate(local *Comm, localLeader int, peer *Comm, remoteLeader, tag int) *Intercomm {
	if local == nil {
		panic("mpi: IntercommCreate with nil local comm")
	}
	var remoteGroup []int
	var remoteCid int
	if local.rank == localLeader {
		// Leaders exchange groups and agree on a context id: the leader
		// with the smaller world rank allocates.
		myWorld := peer.group[peer.rank]
		otherWorld := peer.group[remoteLeader]
		var cid int
		if myWorld < otherWorld {
			cid = local.r.W.allocCids(1)
			peer.Send(remoteLeader, tag, Bytes([]int64{int64(cid)}))
		} else {
			data, _ := peer.Recv(remoteLeader, tag)
			cid = int(bytesToI64s(data)[0])
		}
		peer.Send(remoteLeader, tag+1, Bytes(intsToI64s(local.group)))
		data, _ := peer.Recv(remoteLeader, tag+1)
		remoteGroup = i64sToInts(bytesToI64s(data))
		remoteCid = cid
	}
	// Broadcast (cid, remote group) within the local comm.
	var hdr []int64
	if local.rank == localLeader {
		hdr = []int64{int64(remoteCid), int64(len(remoteGroup))}
	} else {
		hdr = make([]int64, 2)
	}
	hdr = local.BcastI64(localLeader, hdr)
	remoteCid = int(hdr[0])
	n := int(hdr[1])
	var rg []int64
	if local.rank == localLeader {
		rg = intsToI64s(remoteGroup)
	} else {
		rg = make([]int64, n)
	}
	rg = local.BcastI64(localLeader, rg)
	remoteGroup = i64sToInts(rg)
	// The side whose leader has the smaller world rank is "low".
	low := local.group[0] < remoteGroup[0] ||
		(local.group[0] == remoteGroup[0] && len(local.group) < len(remoteGroup))
	return &Intercomm{local: local, remote: remoteGroup, cid: remoteCid, low: low}
}

// Merge combines the two sides of an intercommunicator into one
// intracommunicator (MPI_Intercomm_merge). The low group orders first.
// Collective over both sides; the context id of the merged
// communicator is derived from the intercomm's agreed id.
func (ic *Intercomm) Merge() *Comm {
	var group []int
	if ic.low {
		group = append(append([]int(nil), ic.local.group...), ic.remote...)
	} else {
		group = append(append([]int(nil), ic.remote...), ic.local.group...)
	}
	myWorld := ic.local.group[ic.local.rank]
	myRank := -1
	for i, g := range group {
		if g == myWorld {
			myRank = i
		}
	}
	// Reuse the agreed intercomm cid, offset to a distinct space so the
	// merged comm does not collide with intercomm leader traffic.
	return &Comm{r: ic.local.r, cid: ic.cid + (1 << 27), group: group, rank: myRank}
}

// CommCreateGroup builds a communicator over an arbitrary subset of
// parent's ranks without participation of non-members — the recursive
// intercommunicator create-and-merge algorithm of Dinan et al.
// (EuroMPI'11) that the paper uses for ARMCI's noncollective group
// creation (SectionV.A). members lists parent ranks in the desired
// order; duplicates are invalid. Only members may call; the result's
// rank order follows members sorted ascending.
func CommCreateGroup(parent *Comm, members []int, tag int) *Comm {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			panic(fmt.Sprintf("mpi: CommCreateGroup with duplicate member %d", ms[i]))
		}
	}
	me := sort.SearchInts(ms, parent.rank)
	if me >= len(ms) || ms[me] != parent.rank {
		panic("mpi: CommCreateGroup called by non-member")
	}
	comm := parent.r.Self()
	// Merge subgroups pairwise: after round k, each surviving comm
	// spans a contiguous run of 2^(k+1) members (the tail run may be
	// shorter or skip a round when no partner exists).
	for size := 1; size < len(ms); size *= 2 {
		base := (me / (2 * size)) * (2 * size)
		left, right := base, base+size
		if right >= len(ms) {
			continue // lone subgroup this round; passes through
		}
		iAmLeft := me < right
		var remoteLeaderParent int
		var localLeader = 0
		if iAmLeft {
			remoteLeaderParent = ms[right]
		} else {
			remoteLeaderParent = ms[left]
		}
		ic := IntercommCreate(comm, localLeader, parent, remoteLeaderParent, tag)
		comm = ic.Merge()
	}
	return comm
}

func intsToI64s(xs []int) []int64 {
	ys := make([]int64, len(xs))
	for i, x := range xs {
		ys[i] = int64(x)
	}
	return ys
}

func i64sToInts(xs []int64) []int {
	ys := make([]int, len(xs))
	for i, x := range xs {
		ys[i] = int(x)
	}
	return ys
}
