package mpi

import "fmt"

// The two-layout walk: every byte the RMA layer lands or snapshots
// (rma.go), and every pack and unpack of the wall-clock benchmark
// suite, moves through foldRuns. It walks a source and a
// destination layout in step — each a flatten list (flat.go), or the
// one run of a dense buffer — so a transfer between any two layouts,
// contiguous, vector, indexed or subarray on either side, is one copy
// per byte with no dense staging in between and no fork by layout.
// Nothing here allocates: a dense run lives in the caller's frame.

// dense is the layout of n dense bytes: one run, kept in *one.
func dense(n int, one *[1]Segment) []Segment {
	if n == 0 {
		return nil
	}
	one[0] = Segment{N: n}
	return one[:]
}

// runs is t's layout: its flatten list or, for a contiguous type, its
// one run, kept in *one.
func runs(t Datatype, one *[1]Segment) []Segment {
	if t.Contig() {
		return dense(t.Size(), one)
	}
	return Flatten(t).Segs
}

// foldRuns moves the bytes src's layout sruns names onto those dst's
// layout druns names, the k-th onto the k-th: stored under OpReplace,
// otherwise folded in place over little-endian float64s
// (ReduceBytesF64), which needs every piece a whole number of elements
// at an element offset in the destination layout. The layouts describe
// the same number of bytes; src and dst must not overlap (the RMA layer
// stages a self target's transfer, whose two sides may).
func foldRuns(op Op, dst []byte, druns []Segment, src []byte, sruns []Segment) {
	// When one side is a single run — a dense buffer, a contiguous type —
	// the other side's runs are its pieces, at a running position in it.
	switch {
	case len(sruns) == 1:
		b := sruns[0].Off
		for _, d := range druns {
			foldPiece(op, dst[d.Off:d.Off+d.N], src[b:b+d.N], d.Off)
			b += d.N
		}
		return
	case len(druns) == 1:
		a := druns[0].Off
		for _, s := range sruns {
			foldPiece(op, dst[a:a+s.N], src[s.Off:s.Off+s.N], a)
			a += s.N
		}
		return
	}
	// di, si index the current run on each side, dk, sk how far into it
	// the walk is; each piece ends where the shorter remainder does.
	di, si, dk, sk := 0, 0, 0, 0
	for di < len(druns) && si < len(sruns) {
		d, s := druns[di], sruns[si]
		n := min(d.N-dk, s.N-sk)
		a, b := d.Off+dk, s.Off+sk
		foldPiece(op, dst[a:a+n], src[b:b+n], a)
		if dk += n; dk == d.N {
			di, dk = di+1, 0
		}
		if sk += n; sk == s.N {
			si, sk = si+1, 0
		}
	}
}

// foldPiece folds the piece src onto the piece dst, which starts at
// byte a of its layout's buffer, under op. It is small enough to
// inline, so a store costs the walk no call.
func foldPiece(op Op, dst, src []byte, a int) {
	if op == OpReplace {
		copy(dst, src)
	} else {
		reducePiece(op, dst, src, a)
	}
}

// reducePiece is foldPiece under a reduction.
func reducePiece(op Op, dst, src []byte, a int) {
	if len(dst)%8 != 0 || a%8 != 0 {
		panic(fmt.Sprintf("mpi: accumulate segment not float64-aligned (off=%d n=%d)", a, len(dst)))
	}
	ReduceBytesF64(op, dst, src)
}

// PackInto gathers the datatype's bytes out of src into the dense
// buffer dst, which must hold at least t.Size() bytes. It returns the
// number of bytes packed.
func PackInto(dst []byte, t Datatype, src []byte) int {
	var d, s [1]Segment
	foldRuns(OpReplace, dst, dense(t.Size(), &d), src, runs(t, &s))
	return t.Size()
}

// Unpack scatters dense data into dst (a slice covering the datatype's
// span) following the type's layout, returning bytes consumed.
func Unpack(t Datatype, dst, data []byte) int {
	var d, s [1]Segment
	foldRuns(OpReplace, dst, runs(t, &d), data, dense(t.Size(), &s))
	return t.Size()
}
