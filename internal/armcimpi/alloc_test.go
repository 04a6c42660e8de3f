package armcimpi

import (
	"testing"

	"repro/internal/armci"
)

// TestWarmStridedAllocations pins what a warm strided or I/O-vector
// operation costs the allocator under each method, put, get and
// accumulate alike, on the wire route: the epoch control block, the
// contiguous plans, the executor's view slices and the pinned
// per-segment decision are values or runtime scratch, and the MPI
// layer below allocates nothing per epoch or per operation. The
// descriptor each method compiles is runtime scratch too: direct's
// datatypes are memoized, the others expand the descriptor into the
// runtime's segment list, and IOV-direct rebuilds its datatype pair in
// place (plan.go). The GIOV rows alternate two descriptors of different
// remote layouts, so every IOV-direct operation rebuilds the pair
// rather than finding it unchanged.
func TestWarmStridedAllocations(t *testing.T) {
	const runs = 20
	want := map[Method]float64{
		MethodDirect:       0,
		MethodConservative: 0,
		MethodBatched:      0,
		MethodIOVDirect:    0,
	}
	for _, method := range []Method{MethodDirect, MethodIOVDirect, MethodBatched, MethodConservative} {
		for _, class := range []OpClass{ClassPut, ClassGet, ClassAcc} {
			for _, giov := range []bool{false, true} {
				name := method.String() + "/" + [...]string{"get", "put", "acc"}[class]
				if giov {
					name += "/giov"
				}
				t.Run(name, func(t *testing.T) {
					opt := DefaultOptions()
					opt.StridedMethod = method
					opt.IOVMethod = method
					var allocs float64
					run(t, 4, opt, func(rt *Runtime) {
						addrs, err := rt.Malloc(4096)
						must(t, err)
						if rt.Rank() == 0 {
							local := rt.MallocLocal(1024)
							remote := addrs[2] // the other node: the wire route
							op := warmOp(rt, class, giov, local, remote)
							must(t, op()) // warm: records built, pools and heaps grown
							must(t, op())
							allocs = testing.AllocsPerRun(runs, func() { must(t, op()) })
						}
						rt.Barrier()
						must(t, rt.Free(addrs[rt.Rank()]))
					})
					if allocs > want[method] {
						t.Errorf("a warm %v op allocates %.1f objects, want <= %v", method, allocs, want[method])
					}
				})
			}
		}
	}
}

// warmOp returns one class operation of 16 segments of 64 bytes, dense
// at local and strided at remote: a strided descriptor, or with giov
// two I/O vectors of remote strides 128 and 192, used in turn.
func warmOp(rt *Runtime, class OpClass, giov bool, local, remote armci.Addr) func() error {
	if !giov {
		s := &armci.Strided{
			Src: local, Dst: remote,
			SrcStride: []int{64}, DstStride: []int{128},
			Count: []int{64, 16},
		}
		switch class {
		case ClassGet:
			s.Src, s.Dst = remote, local
			s.SrcStride, s.DstStride = []int{128}, []int{64}
			return func() error { return rt.GetS(s) }
		case ClassAcc:
			return func() error { return rt.AccS(armci.AccDbl, 1, s) }
		}
		return func() error { return rt.PutS(s) }
	}
	var iovs [2][]armci.GIOV
	for k, stride := range []int{128, 192} {
		g := armci.GIOV{Bytes: 64}
		for i := 0; i < 16; i++ {
			l, r := local.Add(64*i), remote.Add(stride*i)
			if class == ClassGet {
				l, r = r, l
			}
			g.Src, g.Dst = append(g.Src, l), append(g.Dst, r)
		}
		iovs[k] = []armci.GIOV{g}
	}
	turn := 0
	return func() error {
		iov := iovs[turn]
		turn = 1 - turn
		switch class {
		case ClassGet:
			return rt.GetV(iov, remote.Rank)
		case ClassAcc:
			return rt.AccV(armci.AccDbl, 1, iov, remote.Rank)
		}
		return rt.PutV(iov, remote.Rank)
	}
}
