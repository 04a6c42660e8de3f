package mpi

import "encoding/binary"

// Accessors only this package's tests use.

// i64sToBytes encodes int64s little-endian, the inverse of bytesToI64s.
func i64sToBytes(xs []int64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// Group returns a copy of the communicator's world-rank group.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// ContextID returns the communicator's context id.
func (c *Comm) ContextID() int { return c.cid }

// TypeVector returns a strided datatype (MPI_Type_vector): count blocks
// of blocklen bytes whose starts are stride bytes apart. stride >=
// blocklen is required so runs do not overlap.
func TypeVector(count, blocklen, stride int) Datatype {
	if count < 0 || blocklen < 0 {
		panic("mpi: TypeVector with negative count/blocklen")
	}
	if count > 1 && stride < blocklen {
		panic("mpi: TypeVector with overlapping blocks")
	}
	if count <= 1 || blocklen == 0 || stride == blocklen {
		return contigType{n: count * blocklen}
	}
	return &vectorType{count: count, blocklen: blocklen, stride: stride}
}

// Size is the number of data bytes the flattened type describes.
func (f *Flat) Size() int { return f.size }

// Span is one past the highest byte touched.
func (f *Flat) Span() int { return f.span }

// NumSegs is the number of contiguous runs.
func (f *Flat) NumSegs() int { return len(f.Segs) }

// Shared reports whether the window was created with
// Win_allocate_shared semantics.
func (w *Win) Shared() bool { return w.state.shared }

// Size returns the exposed byte count of the given window rank.
func (w *Win) Size(rank int) int { return w.state.sizes[rank] }

// CompareAndSwap atomically replaces the int64 at (target, tdisp) with
// swapv if it equals compare, returning the previous value
// (MPI_Compare_and_swap).
func (w *Win) CompareAndSwap(compare, swapv int64, target, tdisp int) (int64, error) {
	return w.atomic("Compare_and_swap", rmaOp{kind: opCAS, op: OpReplace, operand: swapv, compare: compare}, target, tdisp)
}
