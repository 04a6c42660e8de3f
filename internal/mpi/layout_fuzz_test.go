package mpi

import (
	"math/rand"
	"slices"
	"testing"
)

// divisor picks one of n's divisors by k.
func divisor(n, k int) int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds[k%len(ds)]
}

// fuzzLayout decodes b into a layout of exactly n elements of elem
// bytes: b[0] picks contiguous, vector, indexed or 2-D subarray, and the
// bytes after it shape the runs, gaps and origin. Missing bytes read as
// zero, so every input decodes.
func fuzzLayout(b []byte, n, elem int) Datatype {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	if n == 0 {
		return TypeContiguous(0)
	}
	switch at(0) % 4 {
	case 0:
		return TypeContiguous(n * elem)
	case 1:
		bl := divisor(n, at(1))
		return TypeVector(n/bl, bl*elem, (bl+at(2)%4)*elem)
	case 2:
		// Runs of 1-4 elements with 0-3 element gaps, from an offset of
		// 0-2 elements; the high bit of b[1] lists them back to front.
		var offs, lens []int
		off := at(1) % 3 * elem
		for i, left := 2, n; left > 0; i++ {
			l := min(left, 1+at(i)%4)
			offs, lens = append(offs, off), append(lens, l*elem)
			off += (l + at(i)/64) * elem
			left -= l
		}
		if at(1)&0x80 != 0 {
			slices.Reverse(offs)
			slices.Reverse(lens)
		}
		return TypeIndexed(offs, lens)
	default:
		c := divisor(n, at(1))
		r := n / c
		rows, cols := r+at(2)%3, c+at(3)%3
		return TypeSubarray([]int{rows, cols}, []int{r, c}, []int{at(4) % (rows - r + 1), at(5) % (cols - c + 1)}, elem)
	}
}

// FuzzLayoutCopy checks the two-layout walk against the two-pass path
// it replaced: pack the source into a dense buffer through the closure
// enumeration, then unpack or reduce it run by run into the
// destination. Every layout pair moves the same bytes, for a put
// (OpReplace, any element width) and two float64 reductions, and
// leaves the destination's gaps alone; PackInto and Unpack, callers of
// the walk, agree with the oracle's two halves.
func FuzzLayoutCopy(f *testing.F) {
	f.Fuzz(func(t *testing.T, opSel, count, width uint8, srcLayout, dstLayout []byte, seed int64) {
		op := []Op{OpReplace, OpSum, OpMax}[opSel%3]
		elem := 8
		if op == OpReplace {
			elem = 1 + int(width%8)
		}
		n := int(count % 48)
		st, dt := fuzzLayout(srcLayout, n, elem), fuzzLayout(dstLayout, n, elem)
		rng := rand.New(rand.NewSource(seed))
		src, dst := randF64Bytes(rng, st.Span()), randF64Bytes(rng, dt.Span())

		packed := make([]byte, 0, st.Size())
		st.Segments(func(off, n int) { packed = append(packed, src[off:off+n]...) })
		want := append([]byte(nil), dst...)
		pos := 0
		dt.Segments(func(off, n int) {
			if op == OpReplace {
				copy(want[off:off+n], packed[pos:pos+n])
			} else {
				refReduce(op, want[off:off+n], packed[pos:pos+n])
			}
			pos += n
		})

		got := append([]byte(nil), dst...)
		var dr, sr [1]Segment
		foldRuns(op, got, runs(dt, &dr), src, runs(st, &sr))
		if at := firstDiff(got, want); at >= 0 {
			t.Fatalf("%v %v -> %v: byte %d differs from pack-then-fold", op, st, dt, at)
		}
		if op != OpReplace {
			return
		}
		dense := make([]byte, st.Size())
		if PackInto(dense, st, src) != len(dense) || firstDiff(dense, packed) >= 0 {
			t.Fatalf("PackInto(%v) differs from the closure enumeration", st)
		}
		if Unpack(dt, dst, packed) != len(packed) || firstDiff(dst, want) >= 0 {
			t.Fatalf("Unpack(%v) differs from the run-by-run store", dt)
		}
	})
}
