package armci

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// Seg is one resolved contiguous piece of a transfer: N bytes from
// SrcVA in region Sreg to DstVA in region Dreg.
type Seg struct {
	SrcVA, DstVA int64
	Sreg, Dreg   *fabric.Region
	N            int
}

// Xfer is one validated, fully resolved transfer as the direct-runtime
// skeleton hands it to a Transport: every contiguous, strided and IOV
// request of the ARMCI surface arrives in this one shape. It travels
// by value — a landing event's closure captures it whole, so a
// contiguous transfer owns no memory besides that closure.
type Xfer struct {
	Target int            // the remote process
	Segs   []Seg          // the segments of a strided or IOV transfer; nil for a contiguous one
	One    Seg            // the single segment of a contiguous transfer
	Total  int            // payload bytes over all segments
	Local  *fabric.Region // the origin-side region of the last segment (its registration sets the rate)
	// Accumulate lands the payload as dst += Scale*src on float64s
	// instead of storing it; Scale is 1 for puts and gets.
	Accumulate bool
	Scale      float64
}

// Contig reports whether the request came through the contiguous entry
// points (Put/Get/Acc), which pay no per-segment descriptor cost.
func (x Xfer) Contig() bool { return x.Segs == nil }

// Segments returns the transfer's segments in issue order.
func (x Xfer) Segments() []Seg {
	if x.Contig() {
		return []Seg{x.One}
	}
	return x.Segs
}

// Gather snapshots every segment's source bytes, times Scale, into one
// dense pooled slab of Total bytes — one buffer per operation, not one
// per segment: a put's or accumulate's origin at issue, or the source
// of a get from the calling rank itself, which may overlap its
// destination. A scale of 1 is a plain copy; any other scale requires
// float64-aligned segments.
func (x Xfer) Gather(m *fabric.Machine) []byte {
	slab := m.GetBuf(x.Total)
	pos := 0
	for _, sg := range x.Segments() {
		mpi.ScaleBytesF64(slab[pos:pos+sg.N], sg.Sreg.Bytes(sg.SrcVA, sg.N), x.Scale)
		pos += sg.N
	}
	return slab
}

// Scatter lands a gathered slab in the segments' destinations — stored,
// or summed in place on float64s for an accumulate — and returns the
// slab to the machine's pool.
func (x Xfer) Scatter(m *fabric.Machine, slab []byte) {
	pos := 0
	for _, sg := range x.Segments() {
		dst := sg.Dreg.Bytes(sg.DstVA, sg.N)
		if x.Accumulate {
			mpi.ReduceBytesF64(mpi.OpSum, dst, slab[pos:pos+sg.N])
		} else {
			copy(dst, slab[pos:pos+sg.N])
		}
		pos += sg.N
	}
	m.PutBuf(slab)
}

// Copy moves every segment straight from source to destination with no
// staging slab — a load/store path through memory both sides can
// address, and a remote get's one copy, target to origin.
func (x Xfer) Copy() {
	for _, sg := range x.Segments() {
		copy(sg.Dreg.Bytes(sg.DstVA, sg.N), sg.Sreg.Bytes(sg.SrcVA, sg.N))
	}
}
