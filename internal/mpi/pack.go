package mpi

// Dense pack/unpack kernels shared by the RMA layer (rma.go, rma3.go),
// the armcimpi staging paths, and the wall-clock benchmark suite. All
// host-side data movement for derived datatypes funnels through these
// two functions, so the flatten cache (flat.go) accelerates every
// user at once. Neither allocates: the dense side is the caller's
// (pooled) buffer.

// PackInto gathers the datatype's bytes out of src into the dense
// buffer dst, which must hold at least t.Size() bytes. It returns the
// number of bytes packed.
func PackInto(dst []byte, t Datatype, src []byte) int {
	if t.Contig() {
		return copy(dst[:t.Size()], src[:t.Size()])
	}
	pos := 0
	for _, s := range Flatten(t).Segs {
		pos += copy(dst[pos:pos+s.N], src[s.Off:s.Off+s.N])
	}
	return pos
}

// Unpack scatters dense data into dst (a slice covering the datatype's
// span) following the type's layout, returning bytes consumed.
func Unpack(t Datatype, dst, data []byte) int {
	if t.Contig() {
		return copy(dst[:t.Size()], data[:t.Size()])
	}
	pos := 0
	for _, s := range Flatten(t).Segs {
		copy(dst[s.Off:s.Off+s.N], data[pos:pos+s.N])
		pos += s.N
	}
	return pos
}
