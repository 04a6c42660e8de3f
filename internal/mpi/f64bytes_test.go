package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refReduce is the accumulate path the in-place kernel replaced, kept
// as the oracle: decode both sides, reduce the float64 slices element
// by element, encode the result back over dst's whole elements.
func refReduce(op Op, dst, src []byte) {
	cur, in := bytesToF64s(dst), bytesToF64s(src)
	for i := range cur {
		switch op {
		case OpSum:
			cur[i] += in[i]
		case OpProd:
			cur[i] *= in[i]
		case OpMin:
			if in[i] < cur[i] {
				cur[i] = in[i]
			}
		case OpMax:
			if in[i] > cur[i] {
				cur[i] = in[i]
			}
		case OpReplace:
			cur[i] = in[i]
		}
	}
	copy(dst, f64sToBytes(cur))
}

// placed returns a copy of b that starts off bytes (0-7) past an 8-byte
// boundary: the kernels view aligned operands and walk misaligned ones
// byte by byte, and a test picks the branch with off.
func placed(b []byte, off int) []byte {
	buf := make([]byte, len(b)+16)
	k := 0
	for !aligned(buf[k:]) {
		k++
	}
	out := buf[k+off%8 : k+off%8+len(b)]
	copy(out, b)
	return out
}

// refScale is the prescale path the kernel replaced: decode, multiply,
// encode (a scale of 1 was never multiplied: the bytes were copied).
func refScale(dst, src []byte, scale float64) {
	if scale == 1 {
		copy(dst, src[:len(dst)])
		return
	}
	vals := bytesToF64s(src[:len(dst)])
	for i, x := range vals {
		vals[i] = x * scale
	}
	copy(dst, f64sToBytes(vals))
}

// edgeBits are the float64 bit patterns where a careless kernel goes
// wrong: signed zeros, infinities, quiet and signalling NaNs with
// payloads, the denormal range and its borders, and the extremes.
var edgeBits = []uint64{
	0x0000000000000000, 0x8000000000000000, // +0, -0
	0x7FF0000000000000, 0xFFF0000000000000, // +Inf, -Inf
	0x7FF8000000000000, 0xFFF8000000000001, // quiet NaNs
	0x7FF0000000000001, 0x7FF4DEADBEEF0001, 0xFFF0000000000002, // signalling NaNs
	0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF, // denormals
	0x0010000000000000, 0x8010000000000000, // smallest normals
	0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // largest finite
	0x3FF0000000000000, 0xBFF0000000000000, 0x3FE0000000000000, 0x4000000000000000,
}

// randF64Bytes fills n bytes with float64 patterns: a third edge cases,
// a third arbitrary bit patterns, a third ordinary values.
func randF64Bytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b) // the trailing n%8 bytes stay random
	for i := 0; i+8 <= n; i += 8 {
		switch rng.Intn(3) {
		case 0:
			binary.LittleEndian.PutUint64(b[i:], edgeBits[rng.Intn(len(edgeBits))])
		case 1:
			binary.LittleEndian.PutUint64(b[i:], math.Float64bits(rng.NormFloat64()*1e3))
		}
	}
	return b
}

// firstDiff returns the index of the first differing byte, or -1: the
// kernels are compared with the oracle bit for bit, NaN payloads and
// the untouched trailing bytes included.
func firstDiff(got, want []byte) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

func TestReduceBytesF64MatchesDecodeReduceEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, op := range []Op{OpSum, OpMin, OpMax, OpProd, OpReplace} {
		for iter := 0; iter < 400; iter++ {
			n := rng.Intn(300)
			if iter%10 == 0 {
				n = 8 * rng.Intn(40) // whole elements only, as the RMA layer passes
			}
			dst := randF64Bytes(rng, n)
			src := randF64Bytes(rng, n+rng.Intn(9)) // src may be longer than dst
			want := append([]byte(nil), dst...)
			refReduce(op, want, src)
			srcBefore := append([]byte(nil), src...)
			ReduceBytesF64(op, dst, src)
			if at := firstDiff(dst, want); at >= 0 {
				t.Fatalf("%v n=%d: differs from reference at byte %d: got % x want % x",
					op, n, at, dst[at&^7:min(at&^7+8, n)], want[at&^7:min(at&^7+8, n)])
			}
			if !bytes.Equal(src, srcBefore) {
				t.Fatalf("%v n=%d: kernel modified its source", op, n)
			}
		}
	}
}

func TestReduceBytesF64RejectsNonFloatOps(t *testing.T) {
	for _, op := range []Op{OpBOR, OpNoOp} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: no panic", op)
				}
			}()
			ReduceBytesF64(op, make([]byte, 8), make([]byte, 8))
		}()
	}
}

func TestScaleBytesF64MatchesDecodeScaleEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scales := []float64{1, -1, 0, 2, 0.5, -3.25, 1e-310, 1e300, math.Inf(1), math.NaN(), math.Copysign(0, -1)}
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(300)
		scale := scales[rng.Intn(len(scales))]
		src := randF64Bytes(rng, n+rng.Intn(9))
		dst := randF64Bytes(rng, n) // stale bytes a recycled buffer would hold
		want := append([]byte(nil), dst...)
		refScale(want, src, scale)
		ScaleBytesF64(dst, src, scale)
		if at := firstDiff(dst, want); at >= 0 {
			t.Fatalf("scale=%v n=%d: differs from reference at byte %d", scale, n, at)
		}
		// In place (dst and src the same slice) gives the same answer.
		inplace := append([]byte(nil), src[:n]...)
		want = append(want[:0], src[:n]...)
		refScale(want, src, scale)
		ScaleBytesF64(inplace, inplace, scale)
		if at := firstDiff(inplace, want); at >= 0 {
			t.Fatalf("in-place scale=%v n=%d: differs at byte %d", scale, n, at)
		}
	}
}

// The two-layout walk is the kernel's one RMA caller: a fold from a
// dense payload follows the target datatype and leaves the gaps between
// its runs alone.
func TestApplyReductionFollowsDatatype(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	types := []Datatype{
		TypeContiguous(64),
		TypeVector(4, 16, 40),
		TypeIndexed([]int{72, 0, 32}, []int{8, 16, 24}),
	}
	for _, dt := range types {
		for _, op := range []Op{OpSum, OpMin, OpMax, OpProd, OpReplace} {
			dst := randF64Bytes(rng, dt.Span())
			data := randF64Bytes(rng, dt.Size())
			want := append([]byte(nil), dst...)
			pos := 0
			dt.Segments(func(off, n int) {
				refReduce(op, want[off:off+n], data[pos:pos+n])
				pos += n
			})
			var dr, sr [1]Segment
			foldRuns(op, dst, runs(dt, &dr), data, dense(len(data), &sr))
			if at := firstDiff(dst, want); at >= 0 {
				t.Errorf("%v %v: differs from per-run reference at byte %d", dt, op, at)
			}
		}
	}
}

// fuzzOperands copies the fuzz engine's inputs (which are read-only)
// into a destination and a source at least as long, placed mis%8 and
// mis/8%8 bytes past an 8-byte boundary, and plants edge patterns: each
// byte of edges below len(edgeBits) puts that pattern in one element,
// alternating destination and source, so signed zeros, infinities and
// NaN payloads meet each other and ordinary values.
func fuzzOperands(dst, src, edges []byte, mis uint8) ([]byte, []byte) {
	if len(src) < len(dst) {
		dst, src = src, dst
	}
	dst, src = placed(dst, int(mis)), placed(src, int(mis/8))
	for i, e := range edges {
		b, k := dst, i/2
		if i%2 == 1 {
			b = src
		}
		if int(e) < len(edgeBits) && 8*k+8 <= len(b) {
			binary.LittleEndian.PutUint64(b[8*k:], edgeBits[e])
		}
	}
	return dst, src
}

// FuzzReduceBytesF64 holds the in-place accumulate kernel to the
// decode → reduce → encode path it replaced, bit for bit, over all five
// float64 ops and any length: the ragged tail past the last whole
// element stays as it was, and the source may be longer than the
// destination (the longer input is the source). mis places either
// operand off the 8-byte grid, so the float64-view branch and the byte
// branch both run.
func FuzzReduceBytesF64(f *testing.F) {
	f.Fuzz(func(t *testing.T, opSel uint8, dst, src, edges []byte, mis uint8) {
		op := []Op{OpSum, OpProd, OpMin, OpMax, OpReplace}[opSel%5]
		dst, src = fuzzOperands(dst, src, edges, mis)
		want, srcBefore := bytes.Clone(dst), bytes.Clone(src)
		refReduce(op, want, src)
		ReduceBytesF64(op, dst, src)
		if at := firstDiff(dst, want); at >= 0 {
			t.Fatalf("%v n=%d: differs from reference at byte %d: got % x want % x",
				op, len(dst), at, dst[at&^7:min(at&^7+8, len(dst))], want[at&^7:min(at&^7+8, len(want))])
		}
		if !bytes.Equal(src, srcBefore) {
			t.Fatalf("%v n=%d: kernel modified its source", op, len(dst))
		}
	})
}
