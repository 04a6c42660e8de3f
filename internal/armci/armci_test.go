package armci

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func addr(rank int, va int64) Addr { return Addr{Rank: rank, VA: va} }

func TestStridedBasics(t *testing.T) {
	s := &Strided{
		Src: addr(0, 0x1000), Dst: addr(1, 0x2000),
		SrcStride: []int{32}, DstStride: []int{64},
		Count: []int{16, 4},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 1 || s.SegBytes() != 16 || s.Segments() != 4 || s.TotalBytes() != 64 {
		t.Errorf("descriptor accessors wrong: %d/%d/%d/%d",
			s.Levels(), s.SegBytes(), s.Segments(), s.TotalBytes())
	}
	if s.SrcSpan() != 3*32+16 || s.DstSpan() != 3*64+16 {
		t.Errorf("spans: %d/%d", s.SrcSpan(), s.DstSpan())
	}
}

func TestStridedIterateAlgorithm1(t *testing.T) {
	// The paper's Algorithm 1: innermost index fastest, carry outward.
	s := &Strided{
		Src: addr(0, 0), Dst: addr(1, 0),
		SrcStride: []int{10, 100}, DstStride: []int{20, 200},
		Count: []int{5, 2, 3},
	}
	var src, dst []int
	s.Iterate(func(so, do int) {
		src = append(src, so)
		dst = append(dst, do)
	})
	wantSrc := []int{0, 10, 100, 110, 200, 210}
	wantDst := []int{0, 20, 200, 220, 400, 420}
	if len(src) != 6 {
		t.Fatalf("iterated %d segments, want 6", len(src))
	}
	for i := range wantSrc {
		if src[i] != wantSrc[i] || dst[i] != wantDst[i] {
			t.Fatalf("segment %d = (%d,%d), want (%d,%d)", i, src[i], dst[i], wantSrc[i], wantDst[i])
		}
	}
}

// Past the odometer's eight on-stack levels Iterate takes a heap one
// and must enumerate the same way: ten levels of two, each stride
// twice the last, visit the offsets 0, 8, 16, … in order.
func TestStridedIterateDeepLevels(t *testing.T) {
	const levels = 10
	s := &Strided{Src: addr(0, 8), Dst: addr(1, 8), Count: []int{8}}
	for l, stride := 0, 8; l < levels; l, stride = l+1, 2*stride {
		s.SrcStride = append(s.SrcStride, stride)
		s.DstStride = append(s.DstStride, stride)
		s.Count = append(s.Count, 2)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Iterate(func(so, do int) {
		if so != 8*n || do != 8*n {
			t.Fatalf("segment %d at offsets %d/%d, want %d", n, so, do, 8*n)
		}
		n++
	})
	if n != 1<<levels {
		t.Errorf("iterated %d segments, want %d", n, 1<<levels)
	}
}

func TestStridedZeroLevels(t *testing.T) {
	s := &Strided{Src: addr(0, 8), Dst: addr(1, 8), Count: []int{128}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Iterate(func(so, do int) {
		if so != 0 || do != 0 {
			t.Errorf("0-level iterate gave offsets %d/%d", so, do)
		}
		n++
	})
	if n != 1 {
		t.Errorf("0-level iterate ran %d times", n)
	}
}

func TestStridedValidateRejects(t *testing.T) {
	bad := []*Strided{
		{Src: addr(0, 1), Dst: addr(1, 1), Count: []int{}},                                                // empty count
		{Src: addr(0, 1), Dst: addr(1, 1), SrcStride: []int{8}, DstStride: []int{8}, Count: []int{0, 2}},  // zero seg
		{Src: addr(0, 1), Dst: addr(1, 1), SrcStride: []int{4}, DstStride: []int{16}, Count: []int{8, 2}}, // src overlap
		{Src: addr(0, 1), Dst: addr(1, 1), SrcStride: []int{16}, DstStride: []int{4}, Count: []int{8, 2}}, // dst overlap
		{Src: addr(0, 1), Dst: addr(1, 1), SrcStride: []int{16}, Count: []int{8, 2}},                      // stride len
		{Src: Addr{}, Dst: addr(1, 1), SrcStride: []int{16}, DstStride: []int{16}, Count: []int{8, 2}},    // NULL base
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestStridedToGIOVMatchesIterate(t *testing.T) {
	check := func(seg, c1, c2, pad1, pad2 uint8) bool {
		segBytes := int(seg%64) + 1
		n1, n2 := int(c1%5)+1, int(c2%5)+1
		s := &Strided{
			Src: addr(0, 0x100), Dst: addr(2, 0x900),
			SrcStride: []int{segBytes + int(pad1%16)},
			DstStride: []int{segBytes + int(pad2%16)},
			Count:     []int{segBytes, n1},
		}
		_ = n2
		if s.Validate() != nil {
			return true // skip invalid shapes
		}
		g := s.ToGIOV()
		if g.Bytes != segBytes || g.Len() != s.Segments() {
			return false
		}
		i := 0
		ok := true
		s.Iterate(func(so, do int) {
			if g.Src[i] != s.Src.Add(so) || g.Dst[i] != s.Dst.Add(do) {
				ok = false
			}
			i++
		})
		return ok && i == g.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStridedSubarrayTranslation(t *testing.T) {
	// SectionVI.C: strides that nest evenly translate to subarrays.
	s := &Strided{
		Src: addr(0, 0), Dst: addr(1, 0),
		SrcStride: []int{64, 640}, DstStride: []int{128, 1280},
		Count: []int{32, 5, 3},
	}
	sizes, subsizes, starts, ok := s.SrcSubarray()
	if !ok {
		t.Fatal("evenly nested strides should translate")
	}
	// Innermost: 64-byte rows with 32 selected; middle: 640/64=10 rows
	// with 5 selected; outermost: exactly 3.
	want := [][3]int{{3, 3, 0}, {10, 5, 0}, {64, 32, 0}}
	for d := range want {
		if sizes[d] != want[d][0] || subsizes[d] != want[d][1] || starts[d] != want[d][2] {
			t.Errorf("dim %d: (%d,%d,%d), want %v", d, sizes[d], subsizes[d], starts[d], want[d])
		}
	}
	// Unevenly nested strides must refuse.
	s2 := &Strided{
		Src: addr(0, 0), Dst: addr(1, 0),
		SrcStride: []int{64, 650}, DstStride: []int{64, 650},
		Count: []int{32, 5, 3},
	}
	if _, _, _, ok := s2.SrcSubarray(); ok {
		t.Error("uneven stride nesting translated to a subarray")
	}
}

func TestGIOVValidate(t *testing.T) {
	g := GIOV{
		Src:   []Addr{addr(0, 1), addr(0, 2)},
		Dst:   []Addr{addr(1, 1), addr(1, 2)},
		Bytes: 8,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 || g.TotalBytes() != 16 {
		t.Error("giov accessors wrong")
	}
	mismatch := GIOV{Src: []Addr{addr(0, 1)}, Dst: nil, Bytes: 8}
	if err := mismatch.Validate(); err == nil {
		t.Error("src/dst length mismatch accepted")
	}
	zero := GIOV{Src: []Addr{addr(0, 1)}, Dst: []Addr{addr(1, 1)}, Bytes: 0}
	if err := zero.Validate(); err == nil {
		t.Error("zero segment length accepted")
	}
}

func TestValidateIOV(t *testing.T) {
	good := []GIOV{{
		Src:   []Addr{addr(0, 1)},
		Dst:   []Addr{addr(3, 1)},
		Bytes: 4,
	}}
	if err := ValidateIOV(good, 3, false); err != nil {
		t.Fatal(err)
	}
	// Remote side on the wrong process.
	if err := ValidateIOV(good, 2, false); err == nil {
		t.Error("wrong target process accepted")
	}
	// For a get, the remote side is Src.
	if err := ValidateIOV(good, 0, true); err != nil {
		t.Errorf("get orientation: %v", err)
	}
	nullAddr := []GIOV{{Src: []Addr{{}}, Dst: []Addr{addr(3, 1)}, Bytes: 4}}
	if err := ValidateIOV(nullAddr, 3, false); err == nil {
		t.Error("NULL address accepted")
	}
}

func TestGroupTranslation(t *testing.T) {
	g := &Group{Ranks: []int{2, 5, 9}}
	if g.Size() != 3 || g.AbsoluteID(1) != 5 || g.RankOf(9) != 2 || g.RankOf(3) != -1 {
		t.Error("group translation wrong")
	}
}

func TestAccessModeStrings(t *testing.T) {
	for m, want := range map[AccessMode]string{
		ModeConflicting: "conflicting", ModeReadOnly: "read-only", ModeAccOnly: "accumulate-only",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if FetchAndAdd.String() != "fetch-and-add" || Swap.String() != "swap" {
		t.Error("rmw op strings wrong")
	}
}

func TestCheckContig(t *testing.T) {
	if err := CheckContig(addr(0, 1), addr(1, 1), 8); err != nil {
		t.Error(err)
	}
	if err := CheckContig(addr(0, 1), addr(1, 1), -1); err == nil {
		t.Error("negative size accepted")
	}
	if err := CheckContig(Addr{}, addr(1, 1), 8); err == nil {
		t.Error("NULL src accepted")
	}
}

func TestStridedIteratePropertyCoverage(t *testing.T) {
	// Property: Iterate enumerates exactly Segments() disjoint source
	// offsets for valid descriptors of 2-3 levels.
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		sl := 1 + rnd.Intn(2)
		seg := 1 + rnd.Intn(32)
		count := make([]int, sl+1)
		count[0] = seg
		srcStride := make([]int, sl)
		dstStride := make([]int, sl)
		prevS, prevD := seg, seg
		for i := 0; i < sl; i++ {
			count[i+1] = 1 + rnd.Intn(4)
			srcStride[i] = prevS + rnd.Intn(8)
			dstStride[i] = prevD + rnd.Intn(8)
			prevS = srcStride[i] * count[i+1]
			prevD = dstStride[i] * count[i+1]
		}
		s := &Strided{
			Src: addr(0, 0x10), Dst: addr(1, 0x10),
			SrcStride: srcStride, DstStride: dstStride, Count: count,
		}
		if s.Validate() != nil {
			return false
		}
		seen := map[int]bool{}
		n := 0
		bad := false
		s.Iterate(func(so, do int) {
			for k := so; k < so+seg; k++ {
				if seen[k] {
					bad = true // overlapping source coverage
				}
				seen[k] = true
			}
			if so+seg > s.SrcSpan() || do+seg > s.DstSpan() {
				bad = true
			}
			n++
		})
		return !bad && n == s.Segments() && len(seen) == n*seg
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
