package mpi

import (
	"encoding/binary"
	"math"
)

// Byte-level codecs for typed data in []byte messages and buffers. The
// typed collectives send the bytes of the caller's slice itself
// (Bytes); these copy, for results that must outlive a pooled body.

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

// zeroPage is the source of every kernel given a nil one: a region
// nobody wrote reads as zero (fabric.Region.ReadBytes), and the kernels
// run on it a page at a time. It is shared by every job in the process
// and never written; its float64 backing keeps it on the 8-byte grid,
// so ReduceBytesF64 keeps its view path.
var zeroPage = Bytes(new([512]float64)[:])

// fromZeros runs kernel over dst a page at a time, with the zero page
// as the source of each piece. Pieces are whole pages, so each one
// starts where an element does and only the last may have a ragged
// tail, as dst has.
func fromZeros(dst []byte, kernel func(dst, src []byte)) {
	for len(dst) > len(zeroPage) {
		kernel(dst[:len(zeroPage)], zeroPage)
		dst = dst[len(zeroPage):]
	}
	kernel(dst, zeroPage)
}

// ReduceBytesF64 folds src into dst in place, elementwise over
// little-endian float64s: dst[i] = dst[i] op src[i]. It is the one
// accumulate kernel of every runtime (RMA accumulate here, the direct
// runtimes' Acc): no decode, no temporary, no re-encode. Only the len(dst)/8 whole elements of dst are touched;
// src must be at least as long as dst, or nil for zeros. When both
// start on an 8-byte boundary the op runs on their float64 views
// (View); otherwise, as an accumulate at an odd byte address can, it
// walks the bytes.
func ReduceBytesF64(op Op, dst, src []byte) {
	if src == nil && len(dst) > 0 {
		fromZeros(dst, func(d, s []byte) { ReduceBytesF64(op, d, s) })
		return
	}
	src = src[:len(dst)]
	if aligned(dst) && aligned(src) {
		n := len(dst) &^ 7
		reduceF64(op, View[float64](dst[:n]), View[float64](src[:n]))
		return
	}
	// Element k is the [i-8:i:i] sub-slice of both, i = 8k+8: its length
	// is known, so the decode and encode carry no bounds checks.
	switch op {
	case OpSum:
		for i := 8; i <= len(dst); i += 8 {
			d, s := dst[i-8:i:i], src[i-8:i:i]
			putF64(d, getF64(d)+getF64(s))
		}
	case OpProd:
		for i := 8; i <= len(dst); i += 8 {
			d, s := dst[i-8:i:i], src[i-8:i:i]
			putF64(d, getF64(d)*getF64(s))
		}
	case OpMin:
		for i := 8; i <= len(dst); i += 8 {
			d, s := dst[i-8:i:i], src[i-8:i:i]
			if getF64(s) < getF64(d) {
				copy(d, s)
			}
		}
	case OpMax:
		for i := 8; i <= len(dst); i += 8 {
			d, s := dst[i-8:i:i], src[i-8:i:i]
			if getF64(s) > getF64(d) {
				copy(d, s)
			}
		}
	case OpReplace:
		copy(dst[:len(dst)&^7], src)
	default:
		panic("mpi: unsupported float64 reduction op " + op.String())
	}
}

// ScaleBytesF64 writes scale*src[i] into dst[i] over little-endian
// float64s — the prescale pass of an accumulate at a scale other than
// 1. A scale of 1 is a plain copy of every byte; any other scale writes
// the len(dst)/8 whole elements. src must be at least as long as dst,
// or nil for zeros, and the two must be the same slice or not overlap.
func ScaleBytesF64(dst, src []byte, scale float64) {
	if src == nil && len(dst) > 0 {
		fromZeros(dst, func(d, s []byte) { ScaleBytesF64(d, s, scale) })
		return
	}
	src = src[:len(dst)]
	if scale == 1 {
		copy(dst, src)
		return
	}
	for i := 8; i <= len(dst); i += 8 {
		putF64(dst[i-8:i:i], getF64(src[i-8:i:i])*scale)
	}
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// reduceF64 folds src into dst elementwise; src must be at least as
// long as dst. The op is chosen once, outside the loop.
func reduceF64(op Op, dst, src []float64) {
	src = src[:len(dst)]
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpProd:
		for i := range dst {
			dst[i] *= src[i]
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpReplace:
		copy(dst, src)
	default:
		panic("mpi: unsupported float64 reduction op " + op.String())
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
