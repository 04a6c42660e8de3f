package fabric

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// FuzzBufPool runs arbitrary GetBuf / PutBuf / Retire-and-adopt
// sequences against a pure-Go oracle: every buffer the caller holds is
// filled, to its full capacity, with its own id and must still hold it
// after every step, so no two live buffers share a byte (a split that
// did not cap its halves, or a buffer filed twice, shows here); every
// GetBuf(n) has length n and capacity exactly the smallest class size
// (8 + c%8) << (c/8) of at least n, and starts 8-aligned when n is a
// multiple of 8.
//
// Each step is an op byte and a two-byte size. Op%3 is 0: GetBuf of
// 1 + size%4096 bytes (a PutBuf of the oldest live buffer once 32 are
// held); 1: PutBuf of live buffer size%held; 2: Retire the machine and
// adopt its list into a new one, the caller's buffers still held. The
// seed corpus under testdata/fuzz/FuzzBufPool is replayed by plain
// `go test`; CI also fuzzes for a few seconds.
func FuzzBufPool(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x7f, 1, 0, 0, 0, 0x00, 0x3f, 0, 0x00, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		newMachine := func() *Machine {
			m, err := NewMachine(sim.NewEngine(), testParams(), 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := newMachine()
		m.bufs = &bufPool{} // start from nothing another test retired
		type live struct {
			b, want []byte // the buffer at full capacity, and what it must hold
			id      uint16
		}
		var held []live
		var next uint16
		intact := func(step int) {
			for _, l := range held {
				if !bytes.Equal(l.b, l.want) {
					t.Fatalf("step %d: live buffer %d (cap %d) overwritten", step, l.id, len(l.b))
				}
			}
		}
		put := func(k int) {
			m.PutBuf(held[k].b)
			held = append(held[:k], held[k+1:]...)
		}
		for step := 0; len(data) >= 3; step++ {
			op, size := data[0]%3, int(data[1])<<8|int(data[2])
			data = data[3:]
			switch {
			case op == 0 && len(held) == 32:
				put(0)
			case op == 0:
				n := 1 + size%4096
				b := m.GetBuf(n)
				if len(b) != n || cap(b) != smallestClass(n) {
					t.Fatalf("step %d: GetBuf(%d) returned len %d cap %d, want cap %d", step, n, len(b), cap(b), smallestClass(n))
				}
				if n%8 == 0 && reflect.ValueOf(b).Pointer()%8 != 0 {
					t.Fatalf("step %d: GetBuf(%d) is not 8-aligned", step, n)
				}
				l := live{b: b[:cap(b)], want: make([]byte, cap(b)), id: next}
				next++
				for i := range l.want {
					l.want[i] = byte(l.id >> (8 * (i % 2)))
				}
				copy(l.b, l.want)
				held = append(held, l)
			case op == 1 && len(held) > 0:
				put(size % len(held))
			case op == 2:
				m.Retire()
				m = newMachine()
			}
			intact(step)
		}
		m.Retire()
	})
}

// smallestClass is the size of the smallest capacity class that holds
// n bytes, by walking the classes in order.
func smallestClass(n int) int {
	for c := 0; ; c++ {
		if size := (8 + c%8) << (c / 8); size >= n {
			return size
		}
	}
}
