package armci

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// Seg is one resolved contiguous piece of a transfer: N bytes from
// SrcVA in region Sreg to DstVA in region Dreg. The runtimes that move
// data themselves (native, data server) expand every contiguous,
// strided and IOV descriptor into a []Seg and ship it with Gather and
// Scatter.
type Seg struct {
	SrcVA, DstVA int64
	Sreg, Dreg   *fabric.Region
	N            int
}

// Gather snapshots every segment's source bytes, times scale, into one
// dense pooled slab of total bytes — one buffer per operation, not one
// per segment. A scale of 1 is a plain copy; any other scale requires
// float64-aligned segments.
func Gather(m *fabric.Machine, segs []Seg, total int, scale float64) []byte {
	slab := m.GetBuf(total)
	pos := 0
	for _, sg := range segs {
		mpi.ScaleBytesF64(slab[pos:pos+sg.N], sg.Sreg.Bytes(sg.SrcVA, sg.N), scale)
		pos += sg.N
	}
	return slab
}

// Scatter lands a gathered slab in the segments' destinations — stored,
// or summed in place on float64s for an accumulate — and returns the
// slab to the machine's pool.
func Scatter(m *fabric.Machine, segs []Seg, slab []byte, accumulate bool) {
	pos := 0
	for _, sg := range segs {
		dst := sg.Dreg.Bytes(sg.DstVA, sg.N)
		if accumulate {
			mpi.ReduceBytesF64(mpi.OpSum, dst, slab[pos:pos+sg.N])
		} else {
			copy(dst, slab[pos:pos+sg.N])
		}
		pos += sg.N
	}
	m.PutBuf(slab)
}
