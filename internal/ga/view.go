//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package ga

import "unsafe"

// view reinterprets region bytes as the 8-byte elements they hold,
// aliasing b: GA's typed window onto runtime memory, and the only
// unsafe code in the repository (F64View lends it to nwchem's pooled
// task tiles). It is a reinterpretation, not a conversion, because the
// region layout is fixed as little-endian 8-byte words
// (mpi.ReduceBytesF64/ScaleBytesF64 operate on it in place), which is
// the native layout of every target this file builds for;
// view_bigendian.go stops the build everywhere else. b must be
// whole elements on an 8-byte boundary: region backing comes from the
// allocator 8-aligned and every GA offset is a multiple of elemBytes,
// so a violation is a bug in the caller.
func view[T float64 | int64](b []byte) []T {
	if len(b)%elemBytes != 0 {
		panic("ga: view of a partial element")
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%elemBytes != 0 {
		panic("ga: view of misaligned bytes")
	}
	return unsafe.Slice((*T)(p), len(b)/elemBytes)
}

// F64View is view for float64 elements, exported for buffers drawn from
// the machine's payload free list (fabric.Machine.GetBuf), which hands
// them out 8-aligned like region backing: nwchem's task tiles.
func F64View(b []byte) []float64 { return view[float64](b) }
