package armci

import "fmt"

// Strided describes a noncontiguous transfer in GA/ARMCI strided
// notation (Table I):
//
//	Src, Dst    source and destination base addresses
//	StrideLevels (sl) = dimensionality - 1
//	Count       number of units in each dimension, length sl+1;
//	            Count[0] is the contiguous segment length in bytes
//	SrcStride   source stride array in bytes, length sl
//	DstStride   destination stride array in bytes, length sl
type Strided struct {
	Src       Addr
	Dst       Addr
	SrcStride []int
	DstStride []int
	Count     []int
}

// Levels returns the stride level count sl.
func (s *Strided) Levels() int { return len(s.Count) - 1 }

// SegBytes returns the contiguous segment length.
func (s *Strided) SegBytes() int { return s.Count[0] }

// Segments returns the number of contiguous segments transferred.
func (s *Strided) Segments() int {
	n := 1
	for _, c := range s.Count[1:] {
		n *= c
	}
	return n
}

// TotalBytes returns the total payload size.
func (s *Strided) TotalBytes() int { return s.SegBytes() * s.Segments() }

// Validate reports the first structural problem with the descriptor.
func (s *Strided) Validate() error {
	sl := s.Levels()
	if sl < 0 {
		return fmt.Errorf("armci: strided descriptor with empty count array")
	}
	if len(s.SrcStride) != sl || len(s.DstStride) != sl {
		return fmt.Errorf("armci: stride arrays have lengths %d/%d, want %d",
			len(s.SrcStride), len(s.DstStride), sl)
	}
	if s.Count[0] <= 0 {
		return fmt.Errorf("armci: contiguous segment length %d must be positive", s.Count[0])
	}
	for i, c := range s.Count[1:] {
		if c <= 0 {
			return fmt.Errorf("armci: count[%d] = %d must be positive", i+1, c)
		}
	}
	// Strides must cover the previous level's span or segments overlap.
	prevSrc, prevDst := s.Count[0], s.Count[0]
	for i := 0; i < sl; i++ {
		if s.SrcStride[i] < prevSrc {
			return fmt.Errorf("armci: src stride[%d]=%d smaller than inner span %d (overlap)",
				i, s.SrcStride[i], prevSrc)
		}
		if s.DstStride[i] < prevDst {
			return fmt.Errorf("armci: dst stride[%d]=%d smaller than inner span %d (overlap)",
				i, s.DstStride[i], prevDst)
		}
		prevSrc = s.SrcStride[i] * s.Count[i+1]
		prevDst = s.DstStride[i] * s.Count[i+1]
	}
	if s.Src.Nil() || s.Dst.Nil() {
		return fmt.Errorf("armci: strided transfer with NULL base address")
	}
	return nil
}

// Iterate enumerates the (srcOff, dstOff) byte displacements of every
// contiguous segment, in the order of the paper's Algorithm 1 (an
// odometer over the stride levels, innermost level fastest). Each
// segment is SegBytes() long.
func (s *Strided) Iterate(fn func(srcOff, dstOff int)) {
	sl := s.Levels()
	if sl == 0 {
		fn(0, 0)
		return
	}
	var small [8]int // the odometer, off the heap up to 8 levels
	idx := small[:min(sl, len(small))]
	if sl > len(small) {
		idx = make([]int, sl)
	}
	for idx[sl-1] < s.Count[sl] {
		srcDisp, dstDisp := 0, 0
		for i := 0; i < sl; i++ {
			srcDisp += s.SrcStride[i] * idx[i]
			dstDisp += s.DstStride[i] * idx[i]
		}
		fn(srcDisp, dstDisp)
		// Increment the innermost index and propagate the carry.
		idx[0]++
		for i := 0; i < sl-1; i++ {
			if idx[i] >= s.Count[i+1] {
				idx[i] = 0
				idx[i+1]++
			}
		}
	}
}

// SrcSpan returns one past the highest source byte touched, relative
// to Src.
func (s *Strided) SrcSpan() int { return span(s.SrcStride, s.Count) }

// DstSpan returns one past the highest destination byte touched,
// relative to Dst.
func (s *Strided) DstSpan() int { return span(s.DstStride, s.Count) }

func span(stride, count []int) int {
	hi := count[0]
	for i, st := range stride {
		hi += st * (count[i+1] - 1)
	}
	return hi
}

// subarrayArgs performs the paper's SectionVI.C backward translation
// from strided notation to MPI subarray dimensions (C order, byte
// elements), for the side with the given stride array. It requires
// each stride to be a multiple of the next-inner stride; ok reports
// whether the translation applies.
func subarrayArgs(stride, count []int) (sizes, subsizes, starts []int, ok bool) {
	sl := len(count) - 1
	nd := sl + 1
	sizes = make([]int, nd)
	subsizes = make([]int, nd)
	starts = make([]int, nd)
	// Innermost dimension: stride[0] bytes wide, count[0] selected.
	if sl == 0 {
		return []int{count[0]}, []int{count[0]}, []int{0}, true
	}
	sizes[nd-1] = stride[0]
	subsizes[nd-1] = count[0]
	if count[0] > stride[0] {
		return nil, nil, nil, false
	}
	for i := 1; i < sl; i++ {
		if stride[i]%stride[i-1] != 0 {
			return nil, nil, nil, false
		}
		dim := stride[i] / stride[i-1]
		d := nd - 1 - i
		sizes[d] = dim
		subsizes[d] = count[i]
		if count[i] > dim {
			return nil, nil, nil, false
		}
	}
	// Outermost dimension: exactly the selected count.
	sizes[0] = count[sl]
	subsizes[0] = count[sl]
	return sizes, subsizes, starts, true
}

// SrcSubarray returns the subarray description of the source layout.
func (s *Strided) SrcSubarray() (sizes, subsizes, starts []int, ok bool) {
	return subarrayArgs(s.SrcStride, s.Count)
}

// ToGIOV converts the strided descriptor into the generalized I/O
// vector representation (the paper's Algorithm 1 application).
func (s *Strided) ToGIOV() GIOV {
	g := GIOV{Bytes: s.SegBytes()}
	n := s.Segments()
	g.Src = make([]Addr, 0, n)
	g.Dst = make([]Addr, 0, n)
	s.Iterate(func(so, do int) {
		g.Src = append(g.Src, s.Src.Add(so))
		g.Dst = append(g.Dst, s.Dst.Add(do))
	})
	return g
}
