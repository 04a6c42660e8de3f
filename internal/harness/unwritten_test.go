package harness

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// The transfer shapes of TestUnwrittenSourceReadsZero: each moves the
// pieces (srcOff, dstOff, n) of a source and a destination allocation,
// all of them whole float64s at element offsets, so acc can run them.
// The strided one is one stride level: equal pieces at a fixed stride
// on each side.
var unwrittenShapes = []struct {
	kind   string
	pieces [][3]int
}{
	{"contig", [][3]int{{8, 16, 64}}},
	{"strided", [][3]int{{0, 8, 16}, {48, 48, 16}, {96, 88, 16}, {144, 128, 16}}},
	{"iov", [][3]int{{40, 200, 24}, {0, 8, 24}, {128, 96, 24}}},
}

// unwrittenLen is the size of every allocation the test moves between.
const unwrittenLen = 256

// A transfer whose source nobody wrote — a fresh local buffer, a fresh
// GMR slice, a target window for a get — lands zeros, exactly as from
// an explicit zero source, and leaves the source without a backing:
// only a write materializes a region. TestPlatform puts two ranks on a
// node, so rank 0's targets 0, 1 and 2 run the self, the same-node
// (shared-memory) and the wire routes. Once the sources are written,
// every transfer runs again and must move the new bytes: no stale zero
// view survives the write.
func TestUnwrittenSourceReadsZero(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			j, err := RunObs(TestPlatform(), 4, v.impl, v.opt, nil, func(j *Job, p *sim.Proc) error {
				unwrittenBody(t, j, j.Runtime(p))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertNoLeaks(t, j)
			if j.M.BytesSent == 0 || j.AMWorld != nil && j.M.ShmBytes == 0 {
				t.Errorf("wire bytes %d, shared-memory bytes %d: a route did not run", j.M.BytesSent, j.M.ShmBytes)
			}
		})
	}
}

func unwrittenBody(t *testing.T, j *Job, rt armci.Runtime) {
	dsts, err := rt.Malloc(unwrittenLen) // put and acc land here
	must(t, err)
	gsrc, err := rt.Malloc(unwrittenLen) // get sources; rank 0's slice is also a put source
	must(t, err)
	me := rt.Rank()
	if me == 0 {
		for _, written := range []bool{false, true} {
			if written {
				writeSources(t, rt, gsrc)
			}
			unwrittenCases(t, j, rt, dsts, gsrc, written)
		}
	}
	rt.Barrier()
	must(t, rt.Free(gsrc[me]))
	must(t, rt.Free(dsts[me]))
}

// unwrittenCases runs every op, shape and target once from rank 0.
func unwrittenCases(t *testing.T, j *Job, rt armci.Runtime, dsts, gsrc []armci.Addr, written bool) {
	type op struct {
		name  string
		get   bool
		acc   bool
		scale float64
	}
	ops := []op{{"put", false, false, 1}, {"get", true, false, 1}, {"acc", false, true, 1}, {"acc*2", false, true, 2}}
	for _, o := range ops {
		for _, sh := range unwrittenShapes {
			for _, target := range []int{0, 1, 2} {
				// put and acc read a local buffer or rank 0's GMR slice
				// (which ARMCI-MPI's MPI-2 path stages); get reads the
				// target's GMR slice into a local buffer.
				for _, inGMR := range []bool{false, true} {
					if o.get && inGMR {
						continue
					}
					local := rt.MallocLocal(unwrittenLen)
					src, dst := local, dsts[target]
					switch {
					case o.get:
						src, dst = gsrc[target], local
					case inGMR:
						src = gsrc[0]
					}
					if !o.get && !inGMR && written {
						fill(t, rt, local, unwrittenLen, srcByte)
					}
					name := fmt.Sprintf("%s/%s/target=%d/gmr=%v/written=%v", o.name, sh.kind, target, inGMR, written)
					before := prefill(t, rt, dst, o.get)
					var srcNow []byte
					if written {
						srcNow = regionBytes(j, src)
					}
					var err error
					switch {
					case o.get:
						err = issue(rt, sh.kind, sh.pieces, src, dst, target, rt.Get, rt.GetS, rt.GetV)
					case o.acc:
						err = issue(rt, sh.kind, sh.pieces, src, dst, target,
							func(s, d armci.Addr, n int) error { return rt.Acc(armci.AccDbl, o.scale, s, d, n) },
							func(s *armci.Strided) error { return rt.AccS(armci.AccDbl, o.scale, s) },
							func(iov []armci.GIOV, proc int) error { return rt.AccV(armci.AccDbl, o.scale, iov, proc) })
					default:
						err = issue(rt, sh.kind, sh.pieces, src, dst, target, rt.Put, rt.PutS, rt.PutV)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rt.Fence(target)
					want := oracle(before, srcNow, sh.pieces, o.acc, o.scale)
					if at := firstByteDiff(regionBytes(j, dst), want); at >= 0 {
						t.Errorf("%s: destination byte %d = %#x, want %#x", name, at, regionBytes(j, dst)[at], want[at])
					}
					if reg := region(j, src); !written && reg.Data != nil {
						t.Errorf("%s: reading the unwritten source gave it a backing", name)
					}
					must(t, rt.FreeLocal(local))
				}
			}
		}
	}
}

// issue runs one shape of one op through its contiguous, strided or
// IOV entry point.
func issue(rt armci.Runtime, kind string, pieces [][3]int, src, dst armci.Addr, target int,
	contig func(src, dst armci.Addr, n int) error,
	strided func(*armci.Strided) error,
	iov func([]armci.GIOV, int) error) error {
	p := pieces[0]
	switch kind {
	case "contig":
		return contig(src.Add(p[0]), dst.Add(p[1]), p[2])
	case "strided":
		return strided(&armci.Strided{
			Src: src.Add(p[0]), Dst: dst.Add(p[1]),
			SrcStride: []int{pieces[1][0] - p[0]}, DstStride: []int{pieces[1][1] - p[1]},
			Count: []int{p[2], len(pieces)},
		})
	default:
		g := armci.GIOV{Bytes: p[2]}
		for _, p := range pieces {
			g.Src = append(g.Src, src.Add(p[0]))
			g.Dst = append(g.Dst, dst.Add(p[1]))
		}
		return iov([]armci.GIOV{g}, target)
	}
}

// srcByte is byte i of a written source: float64s that differ from a
// destination's.
func srcByte(i int) byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(i/8)+0.25))
	return b[i%8]
}

// writeSources gives every rank's get-source slice (rank 0's is also a
// put source) the written-source pattern, through rank 0's puts.
func writeSources(t *testing.T, rt armci.Runtime, gsrc []armci.Addr) {
	buf := rt.MallocLocal(unwrittenLen)
	fill(t, rt, buf, unwrittenLen, srcByte)
	for _, a := range gsrc[:3] {
		must(t, rt.Put(buf, a, unwrittenLen))
		rt.Fence(a.Rank)
	}
	must(t, rt.FreeLocal(buf))
}

// prefill writes the destination's pattern — float64s with a -0.0 in
// every third element, which an accumulate of zeros turns into +0 —
// directly into a local buffer, or through a put from one into a GMR
// slice, and returns it.
func prefill(t *testing.T, rt armci.Runtime, dst armci.Addr, local bool) []byte {
	pat := make([]byte, unwrittenLen)
	for k := range unwrittenLen / 8 {
		v := float64(k) + 0.5
		if k%3 == 0 {
			v = math.Copysign(0, -1)
		}
		binary.LittleEndian.PutUint64(pat[8*k:], math.Float64bits(v))
	}
	patByte := func(i int) byte { return pat[i] }
	if local {
		fill(t, rt, dst, unwrittenLen, patByte)
		return pat
	}
	buf := rt.MallocLocal(unwrittenLen)
	fill(t, rt, buf, unwrittenLen, patByte)
	must(t, rt.Put(buf, dst, unwrittenLen))
	rt.Fence(dst.Rank)
	must(t, rt.FreeLocal(buf))
	return pat
}

// oracle is the serial answer: before, with each piece of src (zeros
// when src is nil) stored, or added times scale on float64s.
func oracle(before, src []byte, pieces [][3]int, acc bool, scale float64) []byte {
	want := append([]byte(nil), before...)
	for _, p := range pieces {
		for k := 0; k < p[2]; k += 8 {
			var s float64
			if src != nil {
				s = math.Float64frombits(binary.LittleEndian.Uint64(src[p[0]+k:]))
			}
			d := want[p[1]+k : p[1]+k+8]
			if acc {
				s = math.Float64frombits(binary.LittleEndian.Uint64(d)) + scale*s
			}
			binary.LittleEndian.PutUint64(d, math.Float64bits(s))
		}
	}
	return want
}

// region is the allocation holding addr.
func region(j *Job, addr armci.Addr) *fabric.Region {
	return j.M.Space(addr.Rank).Find(addr.VA, unwrittenLen)
}

// regionBytes is a copy of the allocation at addr as it reads now,
// zeros if it was never written; it gives the region no backing.
func regionBytes(j *Job, addr armci.Addr) []byte {
	out := make([]byte, unwrittenLen)
	if reg := region(j, addr); reg.Data != nil {
		copy(out, reg.Data[addr.VA-reg.VA:])
	}
	return out
}

func firstByteDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
