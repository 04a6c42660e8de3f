package armci

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// dirModel drives a Directory and a trivially correct copy of the same
// table side by side. The oracle is the linear scan every runtime used
// before the Directory existed: walk all live allocations, look the
// rank up in the group, test the address against that member's slice.
type dirModel struct {
	t    *testing.T
	d    Directory[int]
	live []*Allocation[int]
	next [dirRanks]int64 // each rank's bump allocator, as fabric.AddrSpace hands out VAs
	ext  int
}

const (
	dirRanks = 4
	dirBase  = 0x1000
)

func newDirModel(t *testing.T) *dirModel {
	m := &dirModel{t: t}
	for r := range m.next {
		m.next[r] = dirBase
	}
	return m
}

// scan is the oracle: the allocation whose slice on addr.Rank contains
// addr.VA, with the slice's group rank.
func (m *dirModel) scan(addr Addr) (*Allocation[int], int) {
	for _, a := range m.live {
		for gr, world := range a.Group {
			base := a.Addrs[gr]
			if world == addr.Rank && !base.Nil() && addr.VA >= base.VA && addr.VA < base.VA+int64(a.Sizes[gr]) {
				return a, gr
			}
		}
	}
	return nil, 0
}

// register allocates a slice of sizes[i] bytes (0: none) on each member
// rank, gap[i] bytes past the rank's previous slice, and registers it.
func (m *dirModel) register(members []int, sizes, gaps []int) {
	addrs := make([]Addr, len(members))
	for i, world := range members {
		if sizes[i] > 0 {
			m.next[world] += int64(gaps[i])
			addrs[i] = Addr{Rank: world, VA: m.next[world]}
			m.next[world] += int64(sizes[i])
		}
	}
	m.ext++
	a := m.d.Register(members, addrs, sizes, m.ext)
	if a.Ext != m.ext || m.d.ByID(a.ID) != a {
		m.t.Fatalf("Register returned %+v, ByID(%d) = %p", a, a.ID, m.d.ByID(a.ID))
	}
	for _, b := range m.live {
		if b.ID == a.ID {
			m.t.Fatalf("id %d handed out twice", a.ID)
		}
	}
	m.live = append(m.live, a)
}

func (m *dirModel) unregister(i int) {
	a := m.live[i]
	m.live = append(m.live[:i], m.live[i+1:]...)
	m.d.Unregister(a)
	if m.d.ByID(a.ID) != nil {
		m.t.Fatalf("ByID(%d) still resolves after Unregister", a.ID)
	}
}

// probe checks every finder at one address against the oracle.
func (m *dirModel) probe(addr Addr, n int) {
	t := m.t
	want, wantGr := m.scan(addr)
	got, gr, disp, ok := m.d.Find(addr)
	if ok != (want != nil) || got != want {
		t.Fatalf("Find(%v) = %p, %v; scan says %p", addr, got, ok, want)
	}
	inRange, baseOf := want, want
	if want != nil {
		base := want.Addrs[wantGr]
		if gr != wantGr || disp != int(addr.VA-base.VA) {
			t.Fatalf("Find(%v) = group rank %d disp %d, want %d and %d", addr, gr, disp, wantGr, addr.VA-base.VA)
		}
		if want.RankOf(addr.Rank) != wantGr {
			t.Fatalf("RankOf(%d) = %d, want %d", addr.Rank, want.RankOf(addr.Rank), wantGr)
		}
		if addr.VA+int64(n) > base.VA+int64(want.Sizes[wantGr]) {
			inRange = nil
		}
		if addr.VA != base.VA {
			baseOf = nil
		}
	}
	if got, gr, ok := m.d.FindRange(addr, n); ok != (inRange != nil) || got != inRange || (ok && gr != wantGr) {
		t.Fatalf("FindRange(%v, %d) = %p rank %d, %v; want %p rank %d", addr, n, got, gr, ok, inRange, wantGr)
	}
	if got := m.d.FindBase(addr); got != baseOf {
		t.Fatalf("FindBase(%v) = %p, want %p", addr, got, baseOf)
	}
}

// sweep probes every rank's whole address range (and a margin either
// side, and ranks that do not exist) and checks the table's size.
func (m *dirModel) sweep() {
	if m.d.Len() != len(m.live) {
		m.t.Fatalf("Len() = %d with %d live allocations", m.d.Len(), len(m.live))
	}
	for r := -1; r <= dirRanks; r++ {
		hi := int64(dirBase)
		if r >= 0 && r < dirRanks {
			hi = m.next[r]
		}
		for va := int64(dirBase - 8); va < hi+8; va += 4 {
			m.probe(Addr{Rank: r, VA: va}, 8)
		}
	}
}

// run decodes data as a stream of operations and applies them, checking
// the Directory against the oracle as it goes; at the end it
// unregisters everything and checks the table is empty. Decoding never
// fails: a truncated stream just ends.
func (m *dirModel) run(data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 && m.ext < 128 { // the sweeps are quadratic: cap the table
		switch op := next(); op % 4 {
		case 0: // register over the members named by a bit mask
			mask := next()%(1<<dirRanks) | 1<<(op/4%dirRanks)
			var members, sizes, gaps []int
			for r := 0; r < dirRanks; r++ {
				if mask&(1<<r) != 0 {
					b := next()
					members = append(members, r)
					sizes = append(sizes, b%5*8) // one in five slices is empty
					gaps = append(gaps, b/5%3*8) // one in three abuts its neighbour
				}
			}
			m.register(members, sizes, gaps)
			m.sweep()
		case 1:
			if len(m.live) > 0 {
				m.unregister(next() % len(m.live))
				m.sweep()
			}
		default:
			r := next() % dirRanks
			m.probe(Addr{Rank: r, VA: dirBase - 16 + int64(next()<<8|next())%(m.next[r]-dirBase+32)}, next()%40)
		}
	}
	for len(m.live) > 0 {
		m.unregister(len(m.live) / 2)
		m.sweep()
	}
}

func TestDirectoryAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 16+rng.Intn(200))
		rng.Read(data)
		newDirModel(t).run(data)
	}
}

func TestDirectoryZeroSizeSlicesNeverIndexed(t *testing.T) {
	m := newDirModel(t)
	// Rank 1's slice is empty: it holds the Nil address, and nothing on
	// rank 1 may resolve — not even VA 0, which Nil is.
	m.register([]int{0, 1, 2}, []int{16, 0, 16}, []int{0, 0, 0})
	a := m.live[0]
	if !a.Addrs[1].Nil() {
		t.Fatalf("empty slice has address %v", a.Addrs[1])
	}
	for _, va := range []int64{0, dirBase, dirBase + 8} {
		if _, _, _, ok := m.d.Find(Addr{Rank: 1, VA: va}); ok {
			t.Errorf("address %#x on the rank with an empty slice resolved", va)
		}
	}
	if m.d.FindBase(Addr{Rank: 1}) != nil {
		t.Error("FindBase(Nil) resolved to the allocation with an empty slice")
	}
	if a.RankOf(1) != 1 || a.RankOf(3) != -1 {
		t.Errorf("RankOf(1), RankOf(3) = %d, %d, want 1, -1", a.RankOf(1), a.RankOf(3))
	}
	m.sweep()
	m.unregister(0)
	m.sweep()
}

func TestDirectoryUnregisterMiddle(t *testing.T) {
	m := newDirModel(t)
	for i := 0; i < 3; i++ { // three abutting slices on every rank
		m.register([]int{0, 1, 2, 3}, []int{32, 32, 32, 32}, []int{0, 0, 0, 0})
	}
	first, last := m.live[0], m.live[2]
	m.unregister(1)
	m.sweep()
	for r := 0; r < dirRanks; r++ {
		if a, _, _, ok := m.d.Find(Addr{Rank: r, VA: dirBase + 31}); !ok || a != first {
			t.Errorf("rank %d: last byte of the first slice resolves to %p", r, a)
		}
		if _, _, _, ok := m.d.Find(Addr{Rank: r, VA: dirBase + 32}); ok {
			t.Errorf("rank %d: first byte of the unregistered slice still resolves", r)
		}
		if a, _, disp, ok := m.d.Find(Addr{Rank: r, VA: dirBase + 64}); !ok || a != last || disp != 0 {
			t.Errorf("rank %d: first byte of the last slice resolves to %p disp %d", r, a, disp)
		}
	}
	m.d.Unregister(m.live[0]) // twice: the second must not disturb a neighbour
	m.unregister(0)
	m.sweep()
}

func TestDirectoryFindAllocatesNothing(t *testing.T) {
	m := newDirModel(t)
	for i := 0; i < 64; i++ {
		m.register([]int{0, 1, 2, 3}, []int{64, 64, 64, 64}, []int{8, 8, 8, 8})
	}
	hit, miss := Addr{Rank: 2, VA: m.live[40].Addrs[2].VA + 17}, Addr{Rank: 2, VA: m.live[40].Addrs[2].VA - 1}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := m.d.Find(hit); !ok {
			t.Fatal("hit missed")
		}
		if _, _, _, ok := m.d.Find(miss); ok {
			t.Fatal("miss hit")
		}
		m.d.FindRange(hit, 8)
		m.d.FindBase(hit)
	}); n != 0 {
		t.Errorf("lookups allocate %v objects per run, want 0", n)
	}
}

// TestRegisterCollectiveMatchesOracle registers one allocation over the
// world and one over the odd ranks' communicator at each size, with
// random slices (a third of them empty), and checks that every member
// attaches to the one entry, whose addresses and sizes are the serial
// reference's: the member's base VA, or Nil for an empty slice. The
// members slice is retained, not copied. Each rank then opens a free
// of each entry over the world, passing its own slice or Nil: Elect
// must resolve the world entry on every rank (or fail on every rank
// when every slice is empty), and fail alike on every rank for the odd
// ranks' entry, whose group is not the world's. Afterwards every pooled
// message body has come back to the pool.
func TestRegisterCollectiveMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			vas, sizes := make([]int64, n), make([]int, n)
			for i := range vas {
				vas[i] = dirBase + 8*int64(rng.Intn(1<<12))
				if rng.Intn(3) > 0 {
					sizes[i] = 8 * (1 + rng.Intn(32))
				}
			}
			out := map[*byte]bool{}
			fabric.BufHook = func(b []byte, put bool) {
				if put {
					delete(out, &b[0])
				} else {
					out[&b[0]] = true
				}
			}
			defer func() { fabric.BufHook = nil }()

			var d Directory[int]
			var odd []int
			for r := 1; r < n; r += 2 {
				odd = append(odd, r)
			}
			world, sub, elected := make([]*Allocation[int], n), make([]*Allocation[int], n), make([]*Allocation[int], n)
			electErr, subErr := make([]error, n), make([]error, n)
			var worldGroup []int
			eng := sim.NewEngine()
			m, err := fabric.NewMachine(eng, fabric.Params{
				Name: "dir", Nodes: (n + 1) / 2, CoresPerNode: 2,
				LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100, LocalLatencyNs: 100, LocalBandwidth: 4e9,
				CopyRate: 4e9, Flops: 1e9, PageSize: 4096, BounceRate: 1e9, UnpinnedRate: 1e9, AccumRate: 1e9,
			}, n)
			mustT(t, err)
			mw := mpi.NewWorld(m, &platform.Tuning{BandwidthFrac: 1})
			mustT(t, eng.Run(n, func(p *sim.Proc) {
				c := mw.Rank(p).CommWorld()
				me := c.Rank()
				worldGroup = c.GroupShared()
				world[me] = d.RegisterCollective(c, worldGroup, vas[me], sizes[me], func() int { return 1 })
				if sc := c.Split(me%2-1, me); sc != nil {
					sub[me] = d.RegisterCollective(sc, odd, vas[me]+1<<20, sizes[me], func() int { return 2 })
				}
				// Free elections over the world, each rank passing its
				// own slice or Nil: one for the world entry, and one
				// for the odd ranks' entry, over the wrong communicator.
				var own, ownSub Addr
				if sizes[me] > 0 {
					own = Addr{Rank: me, VA: vas[me]}
					if me%2 == 1 {
						ownSub = own.Add(1 << 20)
					}
				}
				elected[me], electErr[me] = d.Elect(c, own)
				_, subErr[me] = d.Elect(c, ownSub)
			}))
			m.Retire()
			if len(out) != 0 {
				t.Errorf("%d pooled buffers drawn and never returned", len(out))
			}

			check := func(name string, got []*Allocation[int], members []int, off int64) {
				if len(members) == 0 {
					return
				}
				a := got[members[0]]
				for _, r := range members {
					if got[r] != a {
						t.Fatalf("%s: rank %d attached to entry %p, rank %d to %p", name, r, got[r], members[0], a)
					}
				}
				if &a.Group[0] != &members[0] {
					t.Errorf("%s: the members slice was copied", name)
				}
				for gr, r := range members {
					want := Addr{Rank: r, VA: vas[r] + off}
					if sizes[r] == 0 {
						want = Addr{}
					}
					if a.Addrs[gr] != want || a.Sizes[gr] != sizes[r] {
						t.Errorf("%s: group rank %d has %v, %d bytes; want %v, %d", name, gr, a.Addrs[gr], a.Sizes[gr], want, sizes[r])
					}
				}
			}
			check("world", world, worldGroup, 0)
			check("odd ranks", sub, odd, 1<<20)
			anySlice := slices.ContainsFunc(sizes, func(s int) bool { return s > 0 })
			for r := range n {
				if anySlice && (electErr[r] != nil || elected[r] != world[r]) {
					t.Errorf("rank %d: Elect over the world gave %p, %v; want the world entry %p", r, elected[r], electErr[r], world[r])
				}
				if !anySlice && electErr[r] == nil {
					t.Errorf("rank %d: Elect with every address Nil succeeded", r)
				}
				if subErr[r] == nil || subErr[r].Error() != subErr[0].Error() {
					t.Errorf("rank %d: Elect of the odd ranks' entry over the world: %v, rank 0: %v; want one error on every rank", r, subErr[r], subErr[0])
				}
			}
			if d.Len() != 1+min(len(odd), 1) {
				t.Errorf("Len() = %d", d.Len())
			}
		})
	}
}

// FuzzDirectory feeds dirModel.run arbitrary operation streams. The
// seed corpus under testdata/fuzz/FuzzDirectory is replayed by plain
// `go test`; CI also fuzzes for a few seconds.
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{0, 15, 7, 3, 12, 9, 2, 0, 0x10, 0x20, 8, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { newDirModel(t).run(data) })
}
