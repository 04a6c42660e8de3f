package armcimpi

import (
	"testing"

	"repro/internal/armci"
)

// TestWarmStridedAllocations pins what a warm strided operation costs
// the allocator under each method, put, get and accumulate alike, on
// the wire route: the epoch control block, the contiguous plans, the
// executor's view slices and the pinned per-segment decision are values
// or runtime scratch, and the MPI layer below allocates nothing per
// epoch or per operation, so what is left is the descriptor each method
// compiles. Direct compiles none (its datatypes are memoized); the
// others expand the descriptor to an I/O vector (three objects) and its
// oriented segment list (one), then build their own plan: conservative
// and batched one segment list, IOV-direct two indexed datatypes with
// their offset and length lists and flatten caches.
func TestWarmStridedAllocations(t *testing.T) {
	const runs = 20
	want := map[Method]float64{
		MethodDirect:       0,
		MethodConservative: 5,
		MethodBatched:      5,
		MethodIOVDirect:    18,
	}
	for _, method := range []Method{MethodDirect, MethodIOVDirect, MethodBatched, MethodConservative} {
		for _, class := range []OpClass{ClassPut, ClassGet, ClassAcc} {
			t.Run(method.String()+"/"+[...]string{"get", "put", "acc"}[class], func(t *testing.T) {
				opt := DefaultOptions()
				opt.StridedMethod = method
				var allocs float64
				run(t, 4, opt, func(rt *Runtime) {
					addrs, err := rt.Malloc(4096)
					must(t, err)
					if rt.Rank() == 0 {
						local := rt.MallocLocal(1024)
						s := &armci.Strided{
							Src: local, Dst: addrs[2], // the other node: the wire route
							SrcStride: []int{64}, DstStride: []int{128},
							Count: []int{64, 16},
						}
						op := func() error { return rt.PutS(s) }
						switch class {
						case ClassGet:
							s.Src, s.Dst = addrs[2], local
							s.SrcStride, s.DstStride = []int{128}, []int{64}
							op = func() error { return rt.GetS(s) }
						case ClassAcc:
							op = func() error { return rt.AccS(armci.AccDbl, 1, s) }
						}
						must(t, op()) // warm: records built, pools and heaps grown
						allocs = testing.AllocsPerRun(runs, func() { must(t, op()) })
					}
					rt.Barrier()
					must(t, rt.Free(addrs[rt.Rank()]))
				})
				if allocs > want[method] {
					t.Errorf("a warm %v strided op allocates %.1f objects, want <= %v", method, allocs, want[method])
				}
			})
		}
	}
}
