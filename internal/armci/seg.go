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
// by value, so a contiguous transfer owns no memory of its own, and a
// strided or IOV one borrows the issuing rank's segment scratch, which
// its next issue rewrites. The skeleton has moved its bytes before the
// transport sees it: what the transport reads of it is the cost
// model's input, and Segs only at issue, never from a later event.
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

// move performs the transfer's data movement, all of it, at once:
// every segment from source to destination, stored, or summed in place
// on float64s for an accumulate. The direct runtimes call it at issue.
// A transfer whose target is the calling rank itself may have
// overlapping sides, so self stages it through one pooled slab, the
// source read in full before any destination byte is written; a scaled
// accumulate is staged the same way, scaled into the slab and summed
// from it.
func (x Xfer) move(m *fabric.Machine, self bool) {
	if self || x.Accumulate && x.Scale != 1 {
		x.scatter(m, x.gather(m))
		return
	}
	for _, sg := range x.Segments() {
		dst, src := sg.Dreg.Bytes(sg.DstVA, sg.N), sg.Sreg.ReadBytes(sg.SrcVA, sg.N)
		switch {
		case x.Accumulate:
			mpi.ReduceBytesF64(mpi.OpSum, dst, src)
		case src == nil:
			clear(dst) // a source nobody wrote reads as zero
		default:
			copy(dst, src)
		}
	}
}

// gather snapshots every segment's source bytes, times Scale, into one
// dense pooled slab of Total bytes — one buffer per operation, not one
// per segment. A scale of 1 is a plain copy; any other scale requires
// float64-aligned segments.
func (x Xfer) gather(m *fabric.Machine) []byte {
	slab := m.GetBuf(x.Total)
	pos := 0
	for _, sg := range x.Segments() {
		mpi.ScaleBytesF64(slab[pos:pos+sg.N], sg.Sreg.ReadBytes(sg.SrcVA, sg.N), x.Scale)
		pos += sg.N
	}
	return slab
}

// scatter lands a gathered slab in the segments' destinations — stored,
// or summed in place on float64s for an accumulate — and returns the
// slab to the machine's pool.
func (x Xfer) scatter(m *fabric.Machine, slab []byte) {
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
