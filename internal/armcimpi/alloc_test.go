package armcimpi

import (
	"testing"

	"repro/internal/armci"
)

// TestWarmStridedAllocations pins what a warm strided or I/O-vector
// operation costs the allocator under each method, put, get and
// accumulate alike, on the wire route: the epoch control block, the
// contiguous plans, the executor's view slices and each conservative
// segment's call (with its already decided wire route) are values or
// runtime scratch, and the MPI
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
		s := warmStrided(class, local, remote)
		switch class {
		case ClassGet:
			return func() error { return rt.GetS(s) }
		case ClassAcc:
			return func() error { return rt.AccS(armci.AccDbl, 1, s) }
		}
		return func() error { return rt.PutS(s) }
	}
	iovs := [2][]armci.GIOV{warmIOV(class, local, remote, 128), warmIOV(class, local, remote, 192)}
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

// TestWarmNbAllocations pins what a warm call of each nonblocking form,
// and of the blocking contiguous calls, costs the allocator on the wire
// route under MPI-2 and MPI-3, Wait included. Under MPI-2 a nonblocking
// call completes in its own epoch and allocates nothing the blocking
// call would not; under MPI-3 its request handle and what the handle
// holds are the objects counted.
func TestWarmNbAllocations(t *testing.T) {
	const runs = 20
	type call struct {
		name string
		mpi2 float64 // allocations per warm call under MPI-2
		mpi3 float64 // and under MPI-3
		op   func(rt *Runtime, local, remote armci.Addr) func() error
	}
	nb := func(h armci.Handle, err error) error {
		if err == nil {
			h.Wait()
		}
		return err
	}
	calls := []call{
		{"Put", 0, 0, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return rt.Put(local, remote, 512) }
		}},
		{"Get", 0, 0, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return rt.Get(remote, local, 512) }
		}},
		{"Acc", 0, 0, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return rt.Acc(armci.AccDbl, 1, local, remote, 512) }
		}},
		{"NbPut", 0, 5, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return nb(rt.NbPut(local, remote, 512)) }
		}},
		{"NbGet", 0, 4, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return nb(rt.NbGet(remote, local, 512)) }
		}},
		{"NbAcc", 0, 5, func(rt *Runtime, local, remote armci.Addr) func() error {
			return func() error { return nb(rt.NbAcc(armci.AccDbl, 1, local, remote, 512)) }
		}},
		{"NbPutS", 0, 6, func(rt *Runtime, local, remote armci.Addr) func() error {
			s := warmStrided(ClassPut, local, remote)
			return func() error { return nb(rt.NbPutS(s)) }
		}},
		{"NbGetS", 0, 4, func(rt *Runtime, local, remote armci.Addr) func() error {
			s := warmStrided(ClassGet, local, remote)
			return func() error { return nb(rt.NbGetS(s)) }
		}},
		{"NbAccS", 0, 6, func(rt *Runtime, local, remote armci.Addr) func() error {
			s := warmStrided(ClassAcc, local, remote)
			return func() error { return nb(rt.NbAccS(armci.AccDbl, 1, s)) }
		}},
		{"NbPutV", 0, 13, func(rt *Runtime, local, remote armci.Addr) func() error {
			iov := warmIOV(ClassPut, local, remote, 128)
			return func() error { return nb(rt.NbPutV(iov, remote.Rank)) }
		}},
		{"NbGetV", 0, 13, func(rt *Runtime, local, remote armci.Addr) func() error {
			iov := warmIOV(ClassGet, local, remote, 128)
			return func() error { return nb(rt.NbGetV(iov, remote.Rank)) }
		}},
		{"NbAccV", 0, 13, func(rt *Runtime, local, remote armci.Addr) func() error {
			iov := warmIOV(ClassAcc, local, remote, 128)
			return func() error { return nb(rt.NbAccV(armci.AccDbl, 1, iov, remote.Rank)) }
		}},
	}
	for _, mpi3 := range []bool{false, true} {
		for _, c := range calls {
			name, want := "mpi2/"+c.name, c.mpi2
			if mpi3 {
				name, want = "mpi3/"+c.name, c.mpi3
			}
			t.Run(name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.UseMPI3 = mpi3
				var allocs float64
				run(t, 4, opt, func(rt *Runtime) {
					addrs, err := rt.Malloc(4096)
					must(t, err)
					if rt.Rank() == 0 {
						local := rt.MallocLocal(1024)
						op := c.op(rt, local, addrs[2]) // the other node: the wire route
						must(t, op())                   // warm: records built, pools and heaps grown
						must(t, op())
						allocs = testing.AllocsPerRun(runs, func() { must(t, op()) })
					}
					rt.Barrier()
					must(t, rt.Free(addrs[rt.Rank()]))
				})
				if allocs != want {
					t.Errorf("a warm %s allocates %.2f objects, want %v", c.name, allocs, want)
				}
			})
		}
	}
}

// warmStrided is warmOp's strided descriptor for class: 16 segments
// of 64 bytes, dense at local and strided by 128 at remote.
func warmStrided(class OpClass, local, remote armci.Addr) *armci.Strided {
	s := &armci.Strided{
		Src: local, Dst: remote,
		SrcStride: []int{64}, DstStride: []int{128},
		Count: []int{64, 16},
	}
	if class == ClassGet {
		s.Src, s.Dst = remote, local
		s.SrcStride, s.DstStride = []int{128}, []int{64}
	}
	return s
}

// warmIOV is an I/O vector of the same 16 segments, strided by stride
// at remote.
func warmIOV(class OpClass, local, remote armci.Addr, stride int) []armci.GIOV {
	g := armci.GIOV{Bytes: 64}
	for i := 0; i < 16; i++ {
		l, r := local.Add(64*i), remote.Add(stride*i)
		if class == ClassGet {
			l, r = r, l
		}
		g.Src, g.Dst = append(g.Src, l), append(g.Dst, r)
	}
	return []armci.GIOV{g}
}
