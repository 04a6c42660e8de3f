//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package mpi

import "unsafe"

// View reinterprets buffer bytes as the 8-byte elements they hold,
// aliasing b: the typed window onto runtime memory. This file holds
// the only unsafe code in the repository. GA reads and writes its
// blocks through View, nwchem its pooled task tiles, and the float64
// kernels (util.go) run on it. It is a reinterpretation, not a
// conversion, because the layout is fixed as little-endian 8-byte
// words, which is the native layout of every target this file builds
// for; view_bigendian.go stops the build everywhere else. b must be whole elements on an 8-byte
// boundary: region backing and the machine's payload free list
// (fabric.Machine.GetBuf) hand memory out 8-aligned and every GA offset
// is a multiple of 8, so a violation is a bug in the caller.
func View[T float64 | int64](b []byte) []T {
	if len(b)%8 != 0 {
		panic("mpi: view of a partial element")
	}
	if !aligned(b) {
		panic("mpi: view of misaligned bytes")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// aligned reports whether b starts on an 8-byte boundary. ARMCI
// addresses are byte addresses, so an accumulate's operands need not:
// the kernels view what is aligned and walk the rest byte by byte.
func aligned(b []byte) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 }

// Bytes is the inverse of View: the bytes of v, aliasing it. GA lends
// a caller's element slice to the runtime through it, so a transfer
// reads from and lands in the caller's buffer directly.
func Bytes[T float64 | int64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}
