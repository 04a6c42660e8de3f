package mpi

import (
	"encoding/binary"
	"math"
)

// Byte-level codecs for the typed collectives. The simulation charges
// time by byte count, so the encoding itself is just a convenience for
// moving typed data through []byte messages.

func i64sToBytes(xs []int64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

func bytesToI64s(b []byte) []int64 { return appendI64s(make([]int64, 0, len(b)/8), b) }

// appendI64s decodes b onto the end of xs.
func appendI64s(xs []int64, b []byte) []int64 {
	for ; len(b) >= 8; b = b[8:] {
		xs = append(xs, int64(binary.LittleEndian.Uint64(b)))
	}
	return xs
}

func f64sToBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func bytesToF64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// F64sToBytes encodes float64s little-endian (exported for layers that
// move typed data through byte buffers).
func F64sToBytes(xs []float64) []byte { return f64sToBytes(xs) }

// BytesToF64s decodes float64s little-endian.
func BytesToF64s(b []byte) []float64 { return bytesToF64s(b) }

// I64sToBytes encodes int64s little-endian.
func I64sToBytes(xs []int64) []byte { return i64sToBytes(xs) }

// BytesToI64s decodes int64s little-endian.
func BytesToI64s(b []byte) []int64 { return bytesToI64s(b) }

// ReduceBytesF64 folds src into dst in place, elementwise over
// little-endian float64s: dst[i] = dst[i] op src[i]. It is the one
// accumulate kernel of every runtime (RMA accumulate here, native and
// data-server Acc): no decode, no temporary, no re-encode. Only the
// len(dst)/8 whole elements of dst are touched; src must be at least as
// long as dst. (The loops test both lengths, equal after the reslice,
// so the compiler drops every bounds check inside them.)
func ReduceBytesF64(op Op, dst, src []byte) {
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

// ScaleBytesF64 writes scale*src[i] into dst[i] over little-endian
// float64s — the snapshot pass of a scaled accumulate, so the scale
// costs no pass of its own. A scale of 1 is a plain copy of every
// byte (the snapshot of a put or get); any other scale writes the
// len(dst)/8 whole elements. src must be at least as long as dst, and
// the two must be the same slice or not overlap.
func ScaleBytesF64(dst, src []byte, scale float64) {
	src = src[:len(dst)]
	if scale == 1 {
		copy(dst, src)
		return
	}
	for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
		putF64(dst, getF64(src)*scale)
	}
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func reduceF64(op Op, dst, src []float64) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpProd:
			dst[i] *= src[i]
		case OpReplace:
			dst[i] = src[i]
		default:
			panic("mpi: unsupported float64 reduction op " + op.String())
		}
	}
}

func reduceI64(op Op, dst, src []int64) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpProd:
			dst[i] *= src[i]
		case OpBOR:
			dst[i] |= src[i]
		case OpReplace:
			dst[i] = src[i]
		default:
			panic("mpi: unsupported int64 reduction op " + op.String())
		}
	}
}
