package fabric

import "testing"

func poolMachine(t *testing.T) *Machine {
	t.Helper()
	_, m := newTestMachine(t, 2)
	return m
}

func TestBufPoolRecyclesByClass(t *testing.T) {
	m := poolMachine(t)
	if b := m.GetBuf(0); b != nil {
		t.Errorf("GetBuf(0) = %v, want nil", b)
	}
	m.PutBuf(nil) // a zero-length payload has nothing to give back

	a := m.GetBuf(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("GetBuf(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	m.PutBuf(a)
	// Any request the class covers is served by the same buffer.
	for _, n := range []int{65, 100, 128} {
		b := m.GetBuf(n)
		if len(b) != n || &b[0] != &a[0] {
			t.Errorf("GetBuf(%d) after PutBuf did not recycle the 128-byte buffer", n)
		}
		m.PutBuf(b)
	}
	// A request the class does not cover is not.
	if b := m.GetBuf(129); &b[0] == &a[0] || cap(b) != 256 {
		t.Errorf("GetBuf(129) got cap %d, recycled=%v", cap(b), &b[0] == &a[0])
	}
	if b := m.GetBuf(64); &b[0] == &a[0] {
		t.Error("GetBuf(64) was served from the 128-byte class")
	}
}

// A buffer that never came from the pool is filed under the largest
// class its capacity covers, so it can only serve requests it can hold.
func TestBufPoolAcceptsForeignBuffers(t *testing.T) {
	m := poolMachine(t)
	foreign := make([]byte, 24) // covers the 16-byte class, not the 32-byte one
	m.PutBuf(foreign[:3])       // filed at full capacity whatever the length
	if b := m.GetBuf(32); &b[0] == &foreign[0] {
		t.Fatal("24-byte buffer served a 32-byte request")
	}
	b := m.GetBuf(16)
	if &b[0] != &foreign[0] || len(b) != 16 {
		t.Fatalf("24-byte buffer not recycled for a 16-byte request (len %d)", len(b))
	}
}

// Two machines running the same request sequence make the same
// allocations: the pool adds no run-to-run variation of its own.
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
	b := m.GetBuf(10)
	m.PutBuf(b)
	c := m.GetBuf(16)
	if gets != 2 || puts != 1 {
		t.Errorf("hook calls: %d gets, %d puts", gets, puts)
	}
	for i, x := range c {
		if x != 0xDB {
			t.Fatalf("recycled byte %d = %#x, want the poison", i, x)
		}
	}
}
