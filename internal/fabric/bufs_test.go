package fabric

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

func poolMachine(t *testing.T) *Machine {
	t.Helper()
	_, m := newTestMachine(t, 2)
	return m
}

func TestBufPoolRecyclesByClass(t *testing.T) {
	m := poolMachine(t)
	m.bufs = &bufPool{} // which class is empty matters below
	if b := m.GetBuf(0); b != nil {
		t.Errorf("GetBuf(0) = %v, want nil", b)
	}
	m.PutBuf(nil) // a zero-length payload has nothing to give back

	// 100 bytes fall in the class of 104 = 13 << 3: the octave from 64
	// to 128 steps by 8.
	a := m.GetBuf(100)
	if len(a) != 100 || cap(a) != 104 {
		t.Fatalf("GetBuf(100): len %d cap %d, want 100/104", len(a), cap(a))
	}
	m.PutBuf(a)
	// Any request the class covers is served by the same buffer.
	for _, n := range []int{97, 100, 104} {
		b := m.GetBuf(n)
		if len(b) != n || &b[0] != &a[0] {
			t.Errorf("GetBuf(%d) after PutBuf did not recycle the 104-byte buffer", n)
		}
		m.PutBuf(b)
	}
	// A request the class does not cover is not, and neither is one of
	// the class below: neighbouring classes are not searched.
	if b := m.GetBuf(105); &b[0] == &a[0] || cap(b) != 112 {
		t.Errorf("GetBuf(105) got cap %d, recycled=%v", cap(b), &b[0] == &a[0])
	}
	if b := m.GetBuf(96); &b[0] == &a[0] || cap(b) != 96 {
		t.Errorf("GetBuf(96) got cap %d, recycled=%v", cap(b), &b[0] == &a[0])
	}
	// The split reaches one octave up, no further: with the 26- and
	// 52-byte classes empty, a 26-byte request is made fresh.
	if b := m.GetBuf(26); &b[0] == &a[0] || &b[0] == &a[52] || cap(b) != 26 {
		t.Errorf("GetBuf(26) got cap %d from the 104-byte buffer", cap(b))
	}
	// With its class empty, a 52-byte request takes the first half of
	// the free 104-byte buffer, and the second half serves the next.
	for _, half := range []*byte{&a[0], &a[52]} {
		if b := m.GetBuf(52); &b[0] != half || len(b) != 52 || cap(b) != 52 {
			t.Errorf("GetBuf(52) with its class empty: len %d cap %d, not a half of the 104-byte buffer", len(b), cap(b))
		}
	}
}

// A buffer that never came from the pool is filed under the largest
// class its capacity covers, so it can only serve requests it can hold;
// one too small for any class is not filed at all.
func TestBufPoolAcceptsForeignBuffers(t *testing.T) {
	m := poolMachine(t)
	m.bufs = &bufPool{}
	foreign := make([]byte, 25) // covers the 24-byte class, not the 26-byte one
	m.PutBuf(foreign[:3])       // filed at full capacity whatever the length
	if b := m.GetBuf(26); &b[0] == &foreign[0] {
		t.Fatal("25-byte buffer served a 26-byte request")
	}
	b := m.GetBuf(24)
	if &b[0] != &foreign[0] || len(b) != 24 {
		t.Fatalf("25-byte buffer not recycled for a 24-byte request (len %d)", len(b))
	}
	tiny := make([]byte, 7)
	m.PutBuf(tiny)
	if b := m.GetBuf(7); &b[0] == &tiny[0] || cap(b) != 8 {
		t.Fatalf("GetBuf(7) got cap %d, the 7-byte foreign buffer: %v", cap(b), &b[0] == &tiny[0])
	}
}

// Fig. 6's integral array is (nv²)² doubles, nv = 48, split over a 2-D
// process grid, so from 8 ranks to 128 each count's blocks are the
// halves of the last count's. One list serving those blocks smallest
// count first, as a Fig. 6 chain does, makes backings for the first job
// only, each at most an eighth over its block: every later block is
// split out of one of the 8-rank job's.
func TestHalvingBlocksReuseBackings(t *testing.T) {
	const vBytes = 2304 * 2304 * 8
	params := testParams()
	params.Nodes = 64
	fl := &FreeList{bufs: &bufPool{}}
	type span struct{ lo, hi uintptr }
	var made []span
	for _, procs := range []int{8, 16, 32, 64, 128} {
		m, err := fl.NewMachine(sim.NewEngine(), params, procs)
		if err != nil {
			t.Fatal(err)
		}
		n := vBytes / procs
		for r := range procs {
			b := m.Space(r).Alloc(n, DomainNone, false).Backing()
			lo := reflect.ValueOf(b).Pointer()
			hi := lo + uintptr(cap(b))
			if procs == 8 {
				if cap(b) > n+n/8 {
					t.Errorf("%d-byte block backed by %d bytes, over an eighth more", n, cap(b))
				}
				made = append(made, span{lo, hi})
				continue
			}
			if !slices.ContainsFunc(made, func(s span) bool { return s.lo <= lo && hi <= s.hi }) {
				t.Errorf("%d-rank job: rank %d's %d-byte block was made, not split from an 8-rank block", procs, r, n)
			}
		}
		m.Retire()
	}
}

// Two machines running the same request sequence use the same number
// of distinct buffers: the pool adds no run-to-run variation of its
// own, whatever a list adopted from the stash already holds.
func TestBufPoolIsDeterministicAndJobScoped(t *testing.T) {
	misses := func() int {
		m := poolMachine(t)
		fresh := 0
		seen := map[*byte]bool{}
		var held [][]byte
		for i := 0; i < 200; i++ {
			b := m.GetBuf(1 + (i*37)%5000)
			if !seen[&b[0]] {
				seen[&b[0]] = true
				fresh++
			}
			held = append(held, b)
			if i%3 != 0 {
				m.PutBuf(held[0])
				held = held[1:]
			}
		}
		return fresh
	}
	if a, b := misses(), misses(); a != b {
		t.Errorf("fresh allocations differ between identical jobs: %d vs %d", a, b)
	}
}

// A retired job's backings serve the next job's regions, and every
// region still reads as zero: job 1 fills regions around each
// power-of-two class border — some freed, the rest live when it
// retires — with the released bytes poisoned; job 2 allocates the same
// sizes and must see only zeros, through Backing and through Bytes.
func TestRetiredBackingReadsZero(t *testing.T) {
	BufHook = func(b []byte, put bool) {
		if put {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	defer func() { BufHook = nil }()
	var sizes []int
	for k := 1; k <= 16; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	_, m1 := newTestMachine(t, 2)
	drawn := map[*byte]bool{}
	for i, n := range sizes {
		s := m1.Space(i % 2)
		r := s.Alloc(n, DomainNone, false)
		b := r.Backing()
		for j := range b {
			b[j] = 0xFF
		}
		drawn[&b[0]] = true
		if i%3 == 0 {
			if err := s.Free(r.VA); err != nil {
				t.Fatal(err)
			}
		}
	}
	m1.Retire()
	m1.Retire() // a second retirement hands nothing back twice

	_, m2 := newTestMachine(t, 2)
	recycled := 0
	for i, n := range sizes {
		r := m2.Space(i%2).Alloc(n, DomainNone, false)
		var b []byte
		if i%2 == 0 {
			b = r.Backing()
		} else {
			b = r.Bytes(r.VA, n)
		}
		if drawn[&b[0]] {
			recycled++
		}
		for j, x := range b {
			if x != 0 {
				t.Fatalf("job 2's %d-byte region reads %#x at byte %d", n, x, j)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("job 2 reused none of job 1's backings: retirement does not reach the next machine")
	}
	m2.Retire()
}

// Machines created, used and retired from many goroutines at once never
// share a free list: a list is adopted by one live machine at a time,
// and the stash never holds more lists than machines were ever live at
// once. Run under -race, any pool touched from two goroutines is
// reported there too.
func TestStashOwnsEachPoolOnce(t *testing.T) {
	const goroutines, rounds = 16, 40
	stash.Lock()
	before := len(stash.pools)
	stash.Unlock()
	var mu sync.Mutex
	live := map[*bufPool]bool{}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				m, err := NewMachine(sim.NewEngine(), testParams(), 2)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if live[m.bufs] {
					t.Errorf("free list %p adopted by two live machines", m.bufs)
				}
				live[m.bufs] = true
				mu.Unlock()

				s := m.Space(g % 2)
				r := s.Alloc(64+8*g+i, DomainNone, false)
				r.Backing()[0] = byte(g)
				p := m.GetBuf(100 + i)
				p[0] = byte(i)
				m.PutBuf(p)
				if i%2 == 0 {
					if err := s.Free(r.VA); err != nil {
						t.Error(err)
					}
				}

				// Off the live set before the list can reach the stash.
				mu.Lock()
				delete(live, m.bufs)
				mu.Unlock()
				m.Retire()
			}
		}()
	}
	wg.Wait()
	stash.Lock()
	after := len(stash.pools)
	stash.Unlock()
	if after > max(before, goroutines) {
		t.Errorf("stash holds %d free lists after %d concurrent jobs (had %d)", after, goroutines, before)
	}
}

// A FreeList goes from one machine to the next and nowhere else: the
// second machine made on it gets the first one's list with every
// backing the first held at retirement, a machine asked for while the
// list is held fails, concurrent retirements of stash machines cannot
// reach it, and Close hands it to the stash once.
func TestFreeListHandsDownOneList(t *testing.T) {
	fl := NewFreeList()
	m1, err := fl.NewMachine(sim.NewEngine(), testParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.NewMachine(sim.NewEngine(), testParams(), 2); err == nil {
		t.Fatal("a second live machine got the list")
	}
	b := m1.Space(0).Alloc(4096, DomainNone, false).Backing()
	list := m1.bufs
	other := poolMachine(t) // a stash machine, retired in between
	m1.Retire()
	other.Retire()
	m2, err := fl.NewMachine(sim.NewEngine(), testParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.bufs != list {
		t.Fatal("the next machine on the list did not get the retired one's list")
	}
	if c := m2.Space(1).Alloc(4096, DomainNone, false).Backing(); &c[0] != &b[0] {
		t.Error("the retired machine's backing did not serve the next machine")
	}
	m2.Retire()

	stash.Lock()
	before := len(stash.pools)
	stash.Unlock()
	fl.Close()
	fl.Close()
	stash.Lock()
	after, top := len(stash.pools), stash.pools[len(stash.pools)-1]
	stash.Unlock()
	if after != before+1 || top != list {
		t.Errorf("Close twice: stash %d -> %d lists, top is the list: %v", before, after, top == list)
	}
	if _, err := fl.NewMachine(sim.NewEngine(), testParams(), 2); err == nil {
		t.Error("a closed list made a machine")
	}
	if NewFreeList().bufs != list {
		t.Error("the next list taken from the stash is not the one just closed")
	}
}

func TestBufHookSeesBothDirectionsAtFullCapacity(t *testing.T) {
	m := poolMachine(t)
	var gets, puts int
	BufHook = func(b []byte, put bool) {
		if len(b) != cap(b) {
			t.Errorf("hook saw len %d cap %d", len(b), cap(b))
		}
		if put {
			puts++
			for i := range b {
				b[i] = 0xDB
			}
		} else {
			gets++
		}
	}
	defer func() { BufHook = nil }()
	b := m.GetBuf(97)
	m.PutBuf(b)
	c := m.GetBuf(104) // the same class: the bytes past b's length too
	if gets != 2 || puts != 1 {
		t.Errorf("hook calls: %d gets, %d puts", gets, puts)
	}
	for i, x := range c {
		if x != 0xDB {
			t.Fatalf("recycled byte %d = %#x, want the poison", i, x)
		}
	}
}
