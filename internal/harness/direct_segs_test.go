package harness

import (
	"encoding/binary"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
)

// The direct runtimes (native, the data server) build a strided or IOV
// transfer's segment list in one per-rank scratch slice that the next
// issue rewrites. That is safe only because the bytes move, and the
// transport reads the list, at issue: two strided gets issued back to
// back, the second with a different shape, must both land, and a warm
// strided put must allocate no more than a contiguous one (no segment
// list, no odometer).
func TestDirectSegmentScratch(t *testing.T) {
	const (
		n      = 4096
		target = 2
	)
	for _, impl := range []Impl{ImplNative, ImplDataServer} {
		t.Run(string(impl), func(t *testing.T) {
			var contig, strided float64
			_, err := Run(TestPlatform(), 4, impl, armcimpi.DefaultOptions(), func(rt armci.Runtime) {
				addrs, err := rt.Malloc(n)
				must(t, err)
				fillWords(t, rt, addrs[rt.Rank()], n, rt.Rank()+1)
				rt.Barrier()
				if rt.Rank() == 0 {
					a, b := rt.MallocLocal(n), rt.MallocLocal(n)
					// a: 8 segments of 64 bytes, every 256 bytes;
					// b: 4 segments of 128 bytes, every 512 bytes.
					sa := &armci.Strided{Src: addrs[target], Dst: a, SrcStride: []int{256}, DstStride: []int{64}, Count: []int{64, 8}}
					sb := &armci.Strided{Src: addrs[target].Add(128), Dst: b, SrcStride: []int{512}, DstStride: []int{128}, Count: []int{128, 4}}
					ha, err := rt.NbGetS(sa)
					must(t, err)
					hb, err := rt.NbGetS(sb)
					must(t, err)
					armci.WaitAll(ha, hb)
					remote := make([]byte, n)
					for e := range n / 8 {
						binary.LittleEndian.PutUint64(remote[8*e:], litmusWord(target+1, e))
					}
					check := func(name string, local armci.Addr, s *armci.Strided) {
						got, err := rt.LocalBytes(local, s.TotalBytes())
						must(t, err)
						pos := 0
						s.Iterate(func(so, _ int) {
							off := int(s.Src.VA-addrs[target].VA) + so
							if string(got[pos:pos+s.SegBytes()]) != string(remote[off:off+s.SegBytes()]) {
								t.Errorf("%s: segment at source offset %d did not land", name, off)
							}
							pos += s.SegBytes()
						})
					}
					check("first get", a, sa)
					check("second get", b, sb)

					put := &armci.Strided{Src: a, Dst: addrs[target], SrcStride: []int{64}, DstStride: []int{256}, Count: []int{64, 8}}
					contig = testing.AllocsPerRun(50, func() { must(t, rt.Put(a, addrs[target], 512)) })
					strided = testing.AllocsPerRun(50, func() { must(t, rt.PutS(put)) })
					must(t, rt.FreeLocal(a))
					must(t, rt.FreeLocal(b))
				}
				rt.Barrier()
				must(t, rt.Free(addrs[rt.Rank()]))
			})
			must(t, err)
			if contig != 0 {
				t.Errorf("warm contiguous put allocates %v objects, want 0", contig)
			}
			if strided > contig {
				t.Errorf("warm strided put allocates %v objects, a contiguous put of the same bytes %v", strided, contig)
			}
		})
	}
}
