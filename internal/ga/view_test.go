package ga

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// panicOf runs f and returns the message it panicked with ("" if none).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	f()
	return ""
}

// f64get reads a float64 from region bytes.
func f64get(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// i64get reads an int64 from region bytes.
func i64get(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// i64put writes an int64 into region bytes.
func i64put(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }

// checkView holds GA's typed view of region bytes (mpi.View) to the
// f64get/f64put/i64get/i64put codec — the reference for the region
// layout — on the window
// [off, off+n) of an 8-aligned copy of data: reads through the view,
// writes through the view, and the bulk copy in both directions agree
// with the codec bit for bit; a partial element or a misaligned offset
// trips the assertion instead.
func checkView(t *testing.T, data []byte, off, n int) {
	t.Helper()
	if off+n > len(data) {
		return
	}
	// The allocator returns 8-aligned storage for any size that is a
	// multiple of 8 (the property region backing relies on); the spare
	// word keeps even an empty window at the very end inside the array.
	buf := make([]byte, (len(data)+7)/8*8+8)
	copy(buf, data)
	win := buf[off : off+n]
	var f []float64
	msg := panicOf(func() { f = mpi.View[float64](win) })
	switch {
	case n%8 != 0:
		if !strings.Contains(msg, "partial") {
			t.Fatalf("view of %d bytes: panic %q, want the partial-element assertion", n, msg)
		}
		return
	case off%8 != 0:
		if !strings.Contains(msg, "misaligned") {
			t.Fatalf("view at offset %d: panic %q, want the alignment assertion", off, msg)
		}
		return
	case msg != "":
		t.Fatalf("view(off %d, n %d) panicked: %s", off, n, msg)
	}
	i := mpi.View[int64](win)
	if len(f) != n/8 || len(i) != n/8 {
		t.Fatalf("view of %d bytes has %d / %d elements", n, len(f), len(i))
	}
	// Reads agree with the codec, bit for bit (NaN payloads included).
	for k := range f {
		if got, want := math.Float64bits(f[k]), math.Float64bits(f64get(win[8*k:])); got != want {
			t.Fatalf("f64 elem %d: view %#x, codec %#x", k, got, want)
		}
		if got, want := i[k], i64get(win[8*k:]); got != want {
			t.Fatalf("i64 elem %d: view %#x, codec %#x", k, got, want)
		}
	}
	// One copy out of the view is the codec's decode loop...
	out := make([]float64, len(f))
	copy(out, f)
	for k := range out {
		if math.Float64bits(out[k]) != binary.LittleEndian.Uint64(win[8*k:]) {
			t.Fatalf("copy-out elem %d differs from the bytes", k)
		}
	}
	// ...and one copy in is its encode loop: rotate the values by one
	// through the view and through the codec and compare the bytes.
	if len(f) > 0 {
		want := make([]byte, n)
		for k := range out {
			f64put(want[8*k:], out[(k+1)%len(out)])
		}
		rot := append(out[1:len(out):len(out)], out[0])
		copy(f, rot)
		if string(win) != string(want) {
			t.Fatalf("copy-in through the view wrote %x, codec wrote %x", win, want)
		}
		// A single store through each view lands where the codec reads.
		f[0] = math.Float64frombits(0x7ff8dead0000beef)
		if got := math.Float64bits(f64get(win)); got != 0x7ff8dead0000beef {
			t.Fatalf("f64 store read back %#x", got)
		}
		i[len(i)-1] = -0x0123456789abcdef
		if got := i64get(win[n-8:]); got != -0x0123456789abcdef {
			t.Fatalf("i64 store read back %#x", got)
		}
	}
}

// viewSeeds are the bit patterns a codec could plausibly mangle and a
// reinterpretation cannot: quiet and signalling NaNs with payloads,
// both zeros, subnormals, infinities, the extremes.
var viewSeeds = []uint64{
	0x0000000000000000, 0x8000000000000000, // +0, -0
	0x0000000000000001, 0x800fffffffffffff, // subnormals
	0x7ff0000000000000, 0xfff0000000000000, // infinities
	0x7ff8000000000001, 0xfff8dead0000beef, // quiet NaNs with payloads
	0x7ff0000000000001, 0xfff4000000000000, // signalling NaNs
	0x7fefffffffffffff, 0x0010000000000000, // max, min normal
	0x3ff0000000000000, 0x0123456789abcdef,
}

func seedBytes() []byte {
	b := make([]byte, 8*len(viewSeeds))
	for k, w := range viewSeeds {
		binary.LittleEndian.PutUint64(b[8*k:], w)
	}
	return b
}

func TestViewMatchesCodec(t *testing.T) {
	seeds := seedBytes()
	for off := 0; off <= len(seeds); off++ {
		for n := 0; off+n <= len(seeds) && n <= 40; n++ {
			checkView(t, seeds, off, n)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		off := 0
		if len(data) > 0 {
			off = rng.Intn(len(data) + 1)
		}
		n := rng.Intn(len(data) - off + 1)
		if trial%2 == 0 { // half the trials well-formed
			off, n = off&^7, n&^7
		}
		checkView(t, data, off, n)
	}
}

func FuzzF64View(f *testing.F) {
	seeds := seedBytes()
	f.Add(seeds, uint16(0), uint16(len(seeds))) // the named cases are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte, off, n uint16) {
		checkView(t, data, int(off), int(n))
	})
}
