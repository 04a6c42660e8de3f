package harness

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/sim"
)

// forBoth runs the same body under every ARMCI stack — native,
// ARMCI-MPI on MPI-2 epochs (the paper's shipping design), ARMCI-MPI
// on the MPI-3 lock-all backend (SectionVIII.B), the data server, and
// the locality-aware dartmpi runtime (with and without MPI-3) — the
// paper's central claim is that application code is oblivious to which
// runtime is underneath. Every body frees what it creates, so each run
// must end quiescent (assertNoLeaks).
func forBoth(t *testing.T, nranks int, body func(t *testing.T, rt armci.Runtime)) {
	t.Helper()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			j, err := Run(TestPlatform(), nranks, v.impl, v.opt,
				func(rt armci.Runtime) { body(t, rt) })
			if err != nil {
				t.Fatal(err)
			}
			assertNoLeaks(t, j)
		})
	}
}

// variants are the six ARMCI stacks forBoth runs a body under.
var variants = []struct {
	name string
	impl Impl
	opt  armcimpi.Options
}{
	{"native", ImplNative, armcimpi.DefaultOptions()},
	{"armci-mpi", ImplARMCIMPI, armcimpi.DefaultOptions()},
	{"armci-mpi3", ImplARMCIMPI, mpi3Options()},
	{"armci-ds", ImplDataServer, armcimpi.DefaultOptions()},
	{"dartmpi", ImplDartMPI, armcimpi.DefaultOptions()},
	{"dartmpi-mpi3", ImplDartMPI, mpi3Options()},
}

// assertNoLeaks checks a finished job's translation tables and mutex
// registries are empty: every collective allocation was freed and every
// mutex set destroyed, whichever runtime kept them.
func assertNoLeaks(t *testing.T, j *Job) {
	t.Helper()
	var allocs, mutexSets int
	switch j.Impl {
	case ImplNative:
		allocs, mutexSets = j.NativeWorld.NumAllocs(), j.NativeWorld.NumMutexSets()
	case ImplDataServer:
		allocs, mutexSets = j.DSWorld.NumAllocs(), j.DSWorld.NumMutexSets()
	default: // armci-mpi and dartmpi
		allocs, mutexSets = j.AMWorld.NumGMRs(), j.AMWorld.NumMutexSets()
	}
	if allocs != 0 || mutexSets != 0 {
		t.Errorf("%s job ended with %d live allocations and %d live mutex sets, want 0 and 0", j.Impl, allocs, mutexSets)
	}
}

func mpi3Options() armcimpi.Options {
	opt := armcimpi.DefaultOptions()
	opt.UseMPI3 = true
	return opt
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func fill(t *testing.T, rt armci.Runtime, addr armci.Addr, n int, f func(i int) byte) {
	t.Helper()
	b, err := rt.LocalBytes(addr, n)
	must(t, err)
	for i := range b {
		b[i] = f(i)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(256)
		must(t, err)
		if len(addrs) != 4 {
			t.Fatalf("addr vector length %d", len(addrs))
		}
		if rt.Rank() == 0 {
			src := rt.MallocLocal(64)
			fill(t, rt, src, 64, func(i int) byte { return byte(i + 1) })
			must(t, rt.Put(src, addrs[2].Add(16), 64))
			dst := rt.MallocLocal(64)
			must(t, rt.Get(addrs[2].Add(16), dst, 64))
			b, err := rt.LocalBytes(dst, 64)
			must(t, err)
			for i := range b {
				if b[i] != byte(i+1) {
					t.Fatalf("byte %d = %d, want %d", i, b[i], i+1)
				}
			}
			must(t, rt.FreeLocal(src))
			must(t, rt.FreeLocal(dst))
		}
		rt.Barrier()
		// The target verifies its own memory directly (via DLA).
		if rt.Rank() == 2 {
			b, err := rt.AccessBegin(addrs[2], 256)
			must(t, err)
			for i := 0; i < 64; i++ {
				if b[16+i] != byte(i+1) {
					t.Fatalf("target byte %d = %d", i, b[16+i])
				}
			}
			must(t, rt.AccessEnd(addrs[2]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestAccumulateWithScale(t *testing.T) {
	forBoth(t, 3, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(32)
		must(t, err)
		// Everyone accumulates [1,2,3,4]*scale(rank+1) into rank 0.
		src := rt.MallocLocal(32)
		b, err := rt.LocalBytes(src, 32)
		must(t, err)
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], f64bits(float64(i+1)))
		}
		must(t, rt.Acc(armci.AccDbl, float64(rt.Rank()+1), src, addrs[0], 32))
		rt.Barrier()
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 32)
			must(t, err)
			// Sum of scales = 1+2+3 = 6.
			for i := 0; i < 4; i++ {
				got := f64frombits(binary.LittleEndian.Uint64(mem[8*i:]))
				want := 6 * float64(i+1)
				if got != want {
					t.Fatalf("elem %d = %v, want %v", i, got, want)
				}
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestStridedPutGet2D(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(1024)
		must(t, err)
		if rt.Rank() == 0 {
			// 4 rows of 8 bytes from a local array with row stride 10,
			// into a remote array with row stride 16.
			src := rt.MallocLocal(64)
			fill(t, rt, src, 64, func(i int) byte { return byte(i) })
			s := &armci.Strided{
				Src: src, Dst: addrs[1].Add(100),
				SrcStride: []int{10}, DstStride: []int{16},
				Count: []int{8, 4},
			}
			must(t, rt.PutS(s))
			// Read it back with a different local layout.
			dst := rt.MallocLocal(128)
			g := &armci.Strided{
				Src: addrs[1].Add(100), Dst: dst,
				SrcStride: []int{16}, DstStride: []int{32},
				Count: []int{8, 4},
			}
			must(t, rt.GetS(g))
			db, err := rt.LocalBytes(dst, 128)
			must(t, err)
			for row := 0; row < 4; row++ {
				for k := 0; k < 8; k++ {
					want := byte(row*10 + k)
					if db[row*32+k] != want {
						t.Fatalf("row %d byte %d = %d, want %d", row, k, db[row*32+k], want)
					}
				}
			}
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 1024)
			must(t, err)
			for row := 0; row < 4; row++ {
				for k := 0; k < 8; k++ {
					if mem[100+row*16+k] != byte(row*10+k) {
						t.Fatalf("target row %d byte %d wrong", row, k)
					}
				}
			}
			must(t, rt.AccessEnd(addrs[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestStrided3D(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(4096)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(1024)
			fill(t, rt, src, 1024, func(i int) byte { return byte(i % 251) })
			s := &armci.Strided{
				Src: src, Dst: addrs[1],
				SrcStride: []int{16, 96}, DstStride: []int{24, 128},
				Count: []int{8, 3, 2}, // 8B segments, 3 per plane, 2 planes
			}
			must(t, rt.PutS(s))
			dst := rt.MallocLocal(1024)
			gs := &armci.Strided{
				Src: addrs[1], Dst: dst,
				SrcStride: []int{24, 128}, DstStride: []int{16, 96},
				Count: []int{8, 3, 2},
			}
			must(t, rt.GetS(gs))
			sb, _ := rt.LocalBytes(src, 1024)
			db, _ := rt.LocalBytes(dst, 1024)
			s.Iterate(func(so, do int) {
				for k := 0; k < 8; k++ {
					if db[so+k] != sb[so+k] {
						t.Fatalf("3D mismatch at src offset %d+%d", so, k)
					}
				}
			})
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestStridedAccumulate(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(512)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(256)
			b, _ := rt.LocalBytes(src, 256)
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint64(b[8*i:], f64bits(1))
			}
			s := &armci.Strided{
				Src: src, Dst: addrs[1],
				SrcStride: []int{64}, DstStride: []int{128},
				Count: []int{32, 3}, // 4 doubles per segment, 3 segments
			}
			must(t, rt.AccS(armci.AccDbl, 2.5, s))
			must(t, rt.AccS(armci.AccDbl, 0.5, s))
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 512)
			must(t, err)
			for seg := 0; seg < 3; seg++ {
				for d := 0; d < 4; d++ {
					got := f64frombits(binary.LittleEndian.Uint64(mem[seg*128+8*d:]))
					if got != 3.0 {
						t.Fatalf("seg %d double %d = %v, want 3", seg, d, got)
					}
				}
			}
			must(t, rt.AccessEnd(addrs[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestIOVPutGet(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(1024)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(256)
			fill(t, rt, src, 256, func(i int) byte { return byte(255 - i%256) })
			iov := armci.GIOV{
				Src:   []armci.Addr{src, src.Add(50), src.Add(120)},
				Dst:   []armci.Addr{addrs[1].Add(8), addrs[1].Add(200), addrs[1].Add(400)},
				Bytes: 16,
			}
			must(t, rt.PutV([]armci.GIOV{iov}, 1))
			dst := rt.MallocLocal(64)
			giov := armci.GIOV{
				Src:   []armci.Addr{addrs[1].Add(8), addrs[1].Add(200), addrs[1].Add(400)},
				Dst:   []armci.Addr{dst, dst.Add(16), dst.Add(32)},
				Bytes: 16,
			}
			must(t, rt.GetV([]armci.GIOV{giov}, 1))
			sb, _ := rt.LocalBytes(src, 256)
			db, _ := rt.LocalBytes(dst, 64)
			srcOffs := []int{0, 50, 120}
			for s := 0; s < 3; s++ {
				for k := 0; k < 16; k++ {
					if db[s*16+k] != sb[srcOffs[s]+k] {
						t.Fatalf("iov segment %d byte %d mismatch", s, k)
					}
				}
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestRmwFetchAddAtomicity(t *testing.T) {
	const per = 4
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		olds := map[int64]bool{}
		for i := 0; i < per; i++ {
			old, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 1)
			must(t, err)
			if olds[old] {
				t.Errorf("rank %d observed old value %d twice", rt.Rank(), old)
			}
			olds[old] = true
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 8)
			must(t, err)
			got := int64(binary.LittleEndian.Uint64(mem))
			if got != 4*per {
				t.Errorf("counter = %d, want %d", got, 4*per)
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestRmwSwap(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		if rt.Rank() == 1 {
			old, err := rt.Rmw(armci.Swap, addrs[0], 77)
			must(t, err)
			if old != 0 {
				t.Errorf("first swap old = %d", old)
			}
			old, err = rt.Rmw(armci.Swap, addrs[0], 99)
			must(t, err)
			if old != 77 {
				t.Errorf("second swap old = %d, want 77", old)
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestRmwUnknownOp: an op that is neither FetchAndAdd nor Swap is an
// error naming it as unknown on every runtime, and it leaves the target
// word and every lock as they were, so another rank's FetchAndAdd on
// the same word is served next.
func TestRmwUnknownOp(t *testing.T) {
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		if rt.Rank() == 1 {
			_, err := rt.Rmw(armci.RmwOp(7), addrs[0], 5)
			if err == nil || !strings.Contains(err.Error(), "unknown RMW op RmwOp(7)") {
				t.Errorf("Rmw(RmwOp(7)): err = %v, want one naming the op as unknown", err)
			}
		}
		rt.Barrier()
		if rt.Rank() == 2 {
			old, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 3)
			must(t, err)
			if old != 0 {
				t.Errorf("the rejected op changed the word to %d", old)
			}
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 8)
			must(t, err)
			if got := int64(binary.LittleEndian.Uint64(mem)); got != 3 {
				t.Errorf("word = %d after one FetchAndAdd of 3", got)
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// An MPI-2 Rmw that fails after taking the GMR's mutex releases it:
// rank 0 holds its own window slice open for direct access, so on the
// MPI-2 runtimes its Rmw cannot lock the window and fails, and rank 2's
// Rmw on the same GMR must then be served, not deadlock behind the
// mutex the failed call took. Where rank 0's Rmw succeeds (native, the
// data server, the MPI-3 backend) rank 2 finds its 1 there.
func TestRmwErrorReleasesMutex(t *testing.T) {
	var added int64 // what rank 0's Rmw added to the word
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		if rt.Rank() == 0 {
			_, err := rt.AccessBegin(addrs[0], 8)
			must(t, err)
			added = 0
			if _, err := rt.Rmw(armci.FetchAndAdd, addrs[1], 1); err == nil {
				added = 1
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		if rt.Rank() == 2 {
			old, err := rt.Rmw(armci.FetchAndAdd, addrs[1], 3)
			must(t, err)
			if old != added {
				t.Errorf("rank 2's Rmw read %d, want %d", old, added)
			}
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 8)
			must(t, err)
			if got := int64(binary.LittleEndian.Uint64(mem)); got != added+3 {
				t.Errorf("word = %d, want %d", got, added+3)
			}
			must(t, rt.AccessEnd(addrs[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	// Classic critical-section test: unprotected read-modify-write on a
	// shared location, serialized only by the mutex.
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		mux, err := rt.CreateMutexes(1)
		must(t, err)
		scratch := rt.MallocLocal(8)
		for i := 0; i < 3; i++ {
			mux.Lock(0, 0)
			must(t, rt.Get(addrs[0], scratch, 8))
			b, _ := rt.LocalBytes(scratch, 8)
			v := int64(binary.LittleEndian.Uint64(b))
			rt.Proc().Elapse(5 * sim.Microsecond) // widen the race window
			binary.LittleEndian.PutUint64(b, uint64(v+1))
			must(t, rt.Put(scratch, addrs[0], 8))
			mux.Unlock(0, 0)
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 8)
			must(t, err)
			got := int64(binary.LittleEndian.Uint64(mem))
			if got != 12 {
				t.Errorf("critical-section counter = %d, want 12", got)
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		must(t, mux.Destroy())
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestFenceRemoteCompletion(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(8)
			b, _ := rt.LocalBytes(src, 8)
			binary.LittleEndian.PutUint64(b, 42)
			must(t, rt.Put(src, addrs[1], 8))
			rt.Fence(1)
			// After the fence, the data must be remotely visible: check
			// via an independent get.
			chk := rt.MallocLocal(8)
			must(t, rt.Get(addrs[1], chk, 8))
			cb, _ := rt.LocalBytes(chk, 8)
			if binary.LittleEndian.Uint64(cb) != 42 {
				t.Error("data not remotely complete after Fence")
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestGroupAllocationAndComm(t *testing.T) {
	forBoth(t, 6, func(t *testing.T, rt armci.Runtime) {
		members := []int{1, 2, 4}
		g, err := rt.GroupCreateCollective(members)
		must(t, err)
		in := g != nil
		if in {
			addrs, err := rt.MallocGroup(g, 64)
			must(t, err)
			if len(addrs) != 3 {
				t.Fatalf("group alloc vector length %d", len(addrs))
			}
			// Group rank 0 (world 1) writes to group rank 2 (world 4).
			if rt.Rank() == 1 {
				src := rt.MallocLocal(16)
				fill(t, rt, src, 16, func(i int) byte { return byte(i * 3) })
				// Communication uses absolute ids (SectionIV).
				if addrs[2].Rank != 4 {
					t.Fatalf("addr[2].Rank = %d, want absolute id 4", addrs[2].Rank)
				}
				must(t, rt.Put(src, addrs[2], 16))
			}
			if g.AbsoluteID(2) != 4 || g.RankOf(4) != 2 {
				t.Error("group translation wrong")
			}
			// Synchronize within the group only (via barrier over world
			// is fine for the test).
			rt.Barrier()
			if rt.Rank() == 4 {
				mem, err := rt.AccessBegin(addrs[2], 64)
				must(t, err)
				for i := 0; i < 16; i++ {
					if mem[i] != byte(i*3) {
						t.Fatalf("group put byte %d = %d", i, mem[i])
					}
				}
				must(t, rt.AccessEnd(addrs[2]))
			}
			rt.Barrier()
			must(t, rt.FreeGroup(g, addrs[g.RankOf(rt.Rank())]))
		} else {
			rt.Barrier()
			rt.Barrier()
		}
	})
}

func TestNoncollectiveGroupCreate(t *testing.T) {
	forBoth(t, 5, func(t *testing.T, rt armci.Runtime) {
		members := []int{0, 2, 3}
		in := false
		for _, m := range members {
			if m == rt.Rank() {
				in = true
			}
		}
		if in {
			g, err := rt.GroupCreate(members)
			must(t, err)
			if g.Size() != 3 {
				t.Errorf("group size %d", g.Size())
			}
			addrs, err := rt.MallocGroup(g, 32)
			must(t, err)
			if rt.Rank() == 0 {
				src := rt.MallocLocal(8)
				must(t, rt.Put(src, addrs[1], 8))
			}
			must(t, rt.FreeGroup(g, addrs[g.RankOf(rt.Rank())]))
		}
		rt.Barrier()
	})
}

func TestFreeWithZeroSizeSlices(t *testing.T) {
	// SectionV.B's leader-election case: some processes allocate zero
	// bytes, receive NULL, and pass NULL to free.
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		size := 0
		if rt.Rank()%2 == 0 {
			size = 128
		}
		addrs, err := rt.Malloc(size)
		must(t, err)
		if rt.Rank()%2 == 1 && !addrs[rt.Rank()].Nil() {
			t.Error("zero-size alloc should yield NULL")
		}
		if rt.Rank() == 1 {
			// Odd rank can still access even ranks' slices.
			src := rt.MallocLocal(8)
			must(t, rt.Put(src, addrs[2], 8))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestFreeCollectiveErrors pins the leader election that opens every
// collective free (SectionV.B) on two bad calls: a free in which every
// process passes NULL, and a group allocation freed over the world
// communicator, its non-members passing NULL. Every process must get
// the error before any of them tears down a slice or a window or waits
// in the free's closing barrier, and the allocation then frees
// correctly over its own group.
func TestFreeCollectiveErrors(t *testing.T) {
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		if err := rt.Free(armci.Addr{}); err == nil || !strings.Contains(err.Error(), "NULL") {
			t.Errorf("all-NULL Free: error %v, want one naming NULL", err)
		}
		g, err := rt.GroupCreateCollective([]int{0, 1})
		must(t, err)
		var mine armci.Addr
		if g != nil {
			addrs, err := rt.MallocGroup(g, 64)
			must(t, err)
			mine = addrs[g.RankOf(rt.Rank())]
		}
		if err := rt.Free(mine); err == nil || !strings.Contains(err.Error(), "group") {
			t.Errorf("Free of a group allocation over world: error %v, want one naming the group", err)
		}
		if g != nil {
			must(t, rt.FreeGroup(g, mine))
		}
	})
}

func TestNonblockingOps(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(64)
			fill(t, rt, src, 64, func(i int) byte { return byte(i ^ 0x5A) })
			h, err := rt.NbPut(src, addrs[1], 64)
			must(t, err)
			h.Wait()
			rt.Fence(1)
			dst := rt.MallocLocal(64)
			gh, err := rt.NbGet(addrs[1], dst, 64)
			must(t, err)
			gh.Wait()
			db, _ := rt.LocalBytes(dst, 64)
			for i := range db {
				if db[i] != byte(i^0x5A) {
					t.Fatalf("nb roundtrip byte %d", i)
				}
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestAccessModePhases(t *testing.T) {
	forBoth(t, 3, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		// Fill rank 0's slice, then enter a read-only phase.
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 64)
			must(t, err)
			for i := range mem {
				mem[i] = byte(i)
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		must(t, rt.SetAccessMode(armci.ModeReadOnly, addrs[0]))
		dst := rt.MallocLocal(64)
		must(t, rt.Get(addrs[0], dst, 64))
		b, _ := rt.LocalBytes(dst, 64)
		for i := range b {
			if b[i] != byte(i) {
				t.Fatalf("read-only phase byte %d = %d", i, b[i])
			}
		}
		must(t, rt.SetAccessMode(armci.ModeConflicting, addrs[0]))
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestErrorsSurface(t *testing.T) {
	forBoth(t, 2, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(16)
		must(t, err)
		src := rt.MallocLocal(64)
		if err := rt.Put(src, addrs[1], 64); err == nil {
			t.Error("put past allocation end accepted")
		}
		if err := rt.Put(src, armci.Addr{Rank: 1, VA: 0x9999999}, 8); err == nil {
			t.Error("put to unmapped address accepted")
		}
		if err := rt.Put(src, armci.Addr{}, 8); err == nil {
			t.Error("put to NULL accepted")
		}
		if _, err := rt.Rmw(armci.FetchAndAdd, armci.Addr{}, 1); err == nil {
			t.Error("rmw on NULL accepted")
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestRunObsReportsBodyError: a rank body that fails before a barrier
// the others enter leaves them parked, so the engine reports a
// deadlock; RunObs must hand back the body's error first, with the
// deadlock joined after it, and a job whose bodies all succeed must
// come back with no error.
func TestRunObsReportsBodyError(t *testing.T) {
	sentinel := errors.New("rank 1 gives up")
	_, err := RunObs(TestPlatform(), 4, ImplARMCIMPI, armcimpi.DefaultOptions(), nil, func(j *Job, p *sim.Proc) error {
		rt := j.Runtime(p)
		if rt.Rank() == 1 {
			return sentinel
		}
		rt.Barrier()
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the body's error", err)
	}
	var dl *sim.Deadlock
	if !errors.As(err, &dl) {
		t.Errorf("err = %v, want the engine's deadlock after the body's error", err)
	}
	if err != nil && !strings.HasPrefix(err.Error(), sentinel.Error()) {
		t.Errorf("err = %q, want the body's error first", err)
	}

	j, err := RunObs(TestPlatform(), 4, ImplARMCIMPI, armcimpi.DefaultOptions(), nil, func(j *Job, p *sim.Proc) error {
		j.Runtime(p).Barrier()
		return nil
	})
	if err != nil || j == nil {
		t.Errorf("clean run: job %v, err %v; want the job and no error", j, err)
	}
}

func TestManyRanksSmoke(t *testing.T) {
	forBoth(t, 32, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		next := (rt.Rank() + 1) % rt.Nprocs()
		src := rt.MallocLocal(64)
		fill(t, rt, src, 64, func(i int) byte { return byte(rt.Rank()) })
		must(t, rt.Put(src, addrs[next], 64))
		rt.Barrier()
		mem, err := rt.AccessBegin(addrs[rt.Rank()], 64)
		must(t, err)
		prev := (rt.Rank() - 1 + rt.Nprocs()) % rt.Nprocs()
		if mem[0] != byte(prev) || mem[63] != byte(prev) {
			t.Errorf("rank %d: got data from %d, want %d", rt.Rank(), mem[0], prev)
		}
		must(t, rt.AccessEnd(addrs[rt.Rank()]))
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestParseImpl(t *testing.T) {
	if _, err := ParseImpl("native"); err != nil {
		t.Error(err)
	}
	if _, err := ParseImpl("armci-mpi"); err != nil {
		t.Error(err)
	}
	if _, err := ParseImpl("armci-ds"); err != nil {
		t.Error(err)
	}
	if _, err := ParseImpl("dartmpi"); err != nil {
		t.Error(err)
	}
	if _, err := ParseImpl("bogus"); err == nil {
		t.Error("bogus impl accepted")
	}
	for _, name := range ImplNames() {
		if _, err := ParseImpl(name); err != nil {
			t.Errorf("ImplNames entry %q rejected: %v", name, err)
		}
	}
}

func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
