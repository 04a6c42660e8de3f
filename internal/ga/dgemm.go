package ga

import (
	"fmt"

	"repro/internal/fabric"
)

// Dgemm computes C = alpha * A x B + beta * C for 2-D double arrays
// (GA_Dgemm, no transposition), using the owner-computes formulation:
// each process produces its own block of C from panels of A and B
// fetched one-sidedly in chunks of kblk columns. When m is non-nil the
// local arithmetic is charged to virtual time at 2mnk flops.
// Collective.
func Dgemm(alpha float64, a, b *Array, beta float64, c *Array, kblk int, m *fabric.Machine) error {
	if len(a.dist.Dims) != 2 || len(b.dist.Dims) != 2 || len(c.dist.Dims) != 2 {
		return fmt.Errorf("ga: Dgemm needs 2-D arrays")
	}
	M, K := a.dist.Dims[0], a.dist.Dims[1]
	K2, N := b.dist.Dims[0], b.dist.Dims[1]
	if K != K2 || c.dist.Dims[0] != M || c.dist.Dims[1] != N {
		return fmt.Errorf("ga: Dgemm shape mismatch: A %dx%d, B %dx%d, C %dx%d",
			M, K, K2, N, c.dist.Dims[0], c.dist.Dims[1])
	}
	if kblk <= 0 {
		kblk = 64
	}
	c.sync() // A, B, C stable before the contraction
	idx := c.myOwnerIdx()
	if idx >= 0 && idx < c.dist.OwnerCount() {
		lo, hi, ok := c.dist.Block(idx)
		if ok {
			rows := hi[0] - lo[0] + 1
			cols := hi[1] - lo[1] + 1
			acc := make([]float64, rows*cols)
			apanel := make([]float64, rows*kblk)
			bpanel := make([]float64, kblk*cols)
			for k0 := 0; k0 < K; k0 += kblk {
				k1 := k0 + kblk - 1
				if k1 >= K {
					k1 = K - 1
				}
				kw := k1 - k0 + 1
				ap := apanel[:rows*kw]
				bp := bpanel[:kw*cols]
				if err := a.Get([]int{lo[0], k0}, []int{hi[0], k1}, ap); err != nil {
					return err
				}
				if err := b.Get([]int{k0, lo[1]}, []int{k1, hi[1]}, bp); err != nil {
					return err
				}
				for i := 0; i < rows; i++ {
					for k := 0; k < kw; k++ {
						av := ap[i*kw+k]
						if av == 0 {
							continue
						}
						brow := bp[k*cols:]
						out := acc[i*cols:]
						for j := 0; j < cols; j++ {
							out[j] += av * brow[j]
						}
					}
				}
				if m != nil {
					m.Compute(c.env.Rt.Proc(), 2*float64(rows)*float64(kw)*float64(cols))
				}
			}
			blk, err := c.Access()
			if err != nil {
				return err
			}
			for i, cv := 0, blk.F64s(); i < len(acc); i++ {
				cv[i] = alpha*acc[i] + beta*cv[i]
			}
			if err := blk.Release(); err != nil {
				return err
			}
		}
	}
	c.sync()
	return nil
}

// Transpose computes B = A^T for 2-D arrays of matching transposed
// shape (GA_Transpose). Each process reads the patch of A that maps to
// its B block and writes it locally; the reads are strided one-sided
// gets. Collective.
func Transpose(a, b *Array) error {
	if len(a.dist.Dims) != 2 || len(b.dist.Dims) != 2 {
		return fmt.Errorf("ga: Transpose needs 2-D arrays")
	}
	if a.dist.Dims[0] != b.dist.Dims[1] || a.dist.Dims[1] != b.dist.Dims[0] {
		return fmt.Errorf("ga: Transpose shape mismatch: A %v, B %v", a.dist.Dims, b.dist.Dims)
	}
	b.sync()
	idx := b.myOwnerIdx()
	if idx >= 0 && idx < b.dist.OwnerCount() {
		lo, hi, ok := b.dist.Block(idx)
		if ok {
			rows := hi[0] - lo[0] + 1
			cols := hi[1] - lo[1] + 1
			// B[i][j] = A[j][i]: fetch A[lo1..hi1][lo0..hi0].
			src := make([]float64, cols*rows)
			if err := a.Get([]int{lo[1], lo[0]}, []int{hi[1], hi[0]}, src); err != nil {
				return err
			}
			blk, err := b.Access()
			if err != nil {
				return err
			}
			dst := blk.F64s()
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					dst[i*cols+j] = src[j*rows+i]
				}
			}
			if err := blk.Release(); err != nil {
				return err
			}
		}
	}
	b.sync()
	return nil
}
