package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reslicedReduce and reslicedScale are the kernels' previous bodies,
// which walked both slices by reslicing them eight bytes at a time;
// they are the oracle the index loops are held to bit for bit.
func reslicedReduce(op Op, dst, src []byte) {
	src = src[:len(dst)]
	switch op {
	case OpSum:
		for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
			putF64(dst, getF64(dst)+getF64(src))
		}
	case OpProd:
		for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
			putF64(dst, getF64(dst)*getF64(src))
		}
	case OpMin:
		for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
			if getF64(src) < getF64(dst) {
				copy(dst[:8], src)
			}
		}
	case OpMax:
		for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
			if getF64(src) > getF64(dst) {
				copy(dst[:8], src)
			}
		}
	case OpReplace:
		copy(dst[:len(dst)&^7], src)
	default:
		panic("mpi: unsupported float64 reduction op " + op.String())
	}
}

func reslicedScale(dst, src []byte, scale float64) {
	src = src[:len(dst)]
	if scale == 1 {
		copy(dst, src)
		return
	}
	for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
		putF64(dst, getF64(src)*scale)
	}
}

// edgeF64s are the values whose bits a kernel must carry exactly: NaNs
// (quiet, signalling, with payloads and either sign), both zeros, both
// infinities, subnormals and the normal range's borders.
var edgeF64s = func() []float64 {
	var xs []float64
	for _, b := range edgeBits {
		xs = append(xs, math.Float64frombits(b))
	}
	return append(xs, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, 1.5, -2.25, 3e-308, 1e308)
}()

// edgeBytes encodes n bytes drawn only from edgeF64s; the n%8 trailing
// bytes are arbitrary, and a kernel must leave them alone.
func edgeBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(edgeF64s[rng.Intn(len(edgeF64s))]))
	}
	return b
}

// TestF64KernelsMatchReslicedLoops holds ReduceBytesF64 (all five ops)
// and ScaleBytesF64 to their previous loops over edge-value operands,
// at every length from 0 to 80 bytes (most not a multiple of 8) and a
// few long ones, with src sometimes longer than dst. The four
// repetitions place the operands both aligned, either one off the
// 8-byte grid, and both off it: the float64-view branch and the byte
// branch.
func TestF64KernelsMatchReslicedLoops(t *testing.T) {
	offs := [4][2]int{{0, 0}, {0, 4}, {3, 0}, {1, 7}}
	rng := rand.New(rand.NewSource(26))
	lengths := []int{1000, 4096 + 3, 65536 - 1}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	scales := []float64{1, -1, 0, math.Copysign(0, -1), 2.5, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e308}
	for _, n := range lengths {
		for rep := 0; rep < 4; rep++ {
			src := placed(edgeBytes(rng, n+rng.Intn(9)), offs[rep][1])
			for _, op := range []Op{OpSum, OpProd, OpMin, OpMax, OpReplace} {
				dst := placed(edgeBytes(rng, n), offs[rep][0])
				want := append([]byte(nil), dst...)
				reslicedReduce(op, want, src)
				ReduceBytesF64(op, dst, src)
				if at := firstDiff(dst, want); at >= 0 {
					t.Fatalf("ReduceBytesF64 %v n=%d: differs from the resliced loop at byte %d", op, n, at)
				}
			}
			for _, scale := range scales {
				dst := placed(edgeBytes(rng, n), offs[rep][0])
				want := append([]byte(nil), dst...)
				reslicedScale(want, src, scale)
				ScaleBytesF64(dst, src, scale)
				if at := firstDiff(dst, want); at >= 0 {
					t.Fatalf("ScaleBytesF64 scale=%v n=%d: differs from the resliced loop at byte %d", scale, n, at)
				}
			}
		}
	}
}

// BenchmarkReduceBytesF64 is the accumulate kernel's layer row: an
// OpSum fold at a cache-resident size and at Fig. 3's largest transfer.
func BenchmarkReduceBytesF64(b *testing.B) {
	for _, n := range []int{64 << 10, 32 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			dst, src := make([]byte, n), make([]byte, n)
			for i := 0; i < n; i += 8 {
				binary.LittleEndian.PutUint64(src[i:], math.Float64bits(float64(i)))
			}
			b.SetBytes(int64(n))
			b.ResetTimer()
			for range b.N {
				ReduceBytesF64(OpSum, dst, src)
			}
		})
	}
}
