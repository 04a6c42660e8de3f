package ga

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/sim"
)

// scribble overwrites every slice it is given.
func scribble(slices ...[]int) {
	for _, s := range slices {
		for i := range s {
			s[i] = -99
		}
	}
}

// fenceShapes are 1-D, 2-D and 3-D arrays that four ranks split into
// four blocks.
var fenceShapes = [][]int{{40}, {12, 10}, {6, 6, 8}}

// checkFence mutates every slice GA's query surface hands out for an
// array of each shape, then requires the (process-global, shared)
// block table to equal one built from scratch and a patch spanning all
// four owners to round-trip: the surface hands out copies, never the
// table or Env scratch.
func checkFence(t *testing.T, e *Env) {
	for _, dims := range fenceShapes {
		a, err := e.Create("fenced", F64, dims)
		if err != nil {
			t.Error(err)
			return
		}
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		n := 1
		for d, x := range dims {
			hi[d] = x - 1
			n *= x
		}
		for rank := 0; rank < e.Nprocs(); rank++ {
			bLo, bHi, _ := a.Distribution(rank)
			scribble(bLo, bHi)
		}
		located, err := a.LocateRegion(lo, hi)
		if err != nil || len(located) != 4 {
			t.Errorf("LocateRegion(%v): %d patches, err %v; want 4 owners", dims, len(located), err)
		}
		for _, p := range append(located, a.dist.Intersect(lo, hi)...) {
			scribble(p.Lo, p.Hi)
		}
		blk, err := a.Access()
		if err != nil {
			t.Error(err)
			return
		}
		scribble(blk.Lo, blk.Hi, blk.Dims())
		if err := blk.Release(); err != nil {
			t.Error(err)
		}
		e.Sync()
		if fresh := buildDistribution(dims, e.Nprocs()); !reflect.DeepEqual(a.dist.blocks, fresh.blocks) {
			t.Errorf("%v: shared block table %v, rebuilt %v", dims, a.dist.blocks, fresh.blocks)
		}
		if e.Me() == 0 {
			vals, out := make([]float64, n), make([]float64, n)
			for i := range vals {
				vals[i] = float64(i) + 0.25
			}
			if err := a.Put(lo, hi, vals); err != nil {
				t.Error(err)
			}
			if err := a.Get(lo, hi, out); err != nil {
				t.Error(err)
			}
			if !reflect.DeepEqual(out, vals) {
				t.Errorf("%v: four-owner patch did not round-trip after the mutations", dims)
			}
		}
		e.Sync()
		if err := a.Destroy(); err != nil {
			t.Error(err)
		}
	}
}

func TestBlockTableIsFenced(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) { checkFence(t, e) })
}

// Two jobs of the same shape share one block table through distCache;
// run under -race this proves nothing writes it after construction.
func TestBlockTableSharedByParallelJobs(t *testing.T) {
	var wg sync.WaitGroup
	for job := 0; job < 2; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplNative, armcimpi.DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.Eng.Run(4, func(p *sim.Proc) {
				checkFence(t, NewEnv(j.Runtime(p), j.MpiWorld.Rank(p)))
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// The owner walk and the descriptor build of a warm fan-out allocate
// nothing: bounds come from the shared table, working arrays live on
// the stack, descriptors in Env slots.
func TestFanoutDescriptorsAllocateNothing(t *testing.T) {
	a := &Array{env: &Env{slots: make([]patchSlot, 4)}, dist: newDistribution([]int{16, 16}, 4), addrs: make([]armci.Addr, 4)}
	lo, hi := []int{3, 2}, []int{12, 13} // spans all four owners
	rsLocal := []int{12 * elemBytes, elemBytes}
	local := armci.Addr{VA: 0x1000}
	owners, segs := 0, 0
	got := testing.AllocsPerRun(100, func() {
		owners, segs = 0, 0
		w := a.dist.owners(lo, hi)
		for owner, ok := w.next(); ok; owner, ok = w.next() {
			s := a.patchStrided(&a.env.slots[owners], owner, lo, hi, rsLocal, local, true)
			owners++
			segs += s.Segments()
		}
	})
	if owners != 4 || segs != 20 {
		t.Errorf("walk built %d descriptors of %d segments, want 4 of 20", owners, segs)
	}
	if got != 0 {
		t.Errorf("owner walk + descriptor build allocates %v objects per fan-out, want 0", got)
	}
}

// Objects per warm GA operation on rank 0, end to end through the real
// runtimes (16x16 doubles over 4 ranks; the 1-owner patch is 4x4 in
// rank 3's block, the 4-owner patch 10x12 across all blocks). What is
// left is the runtime's: plans, epochs, landing closures, handles. The
// parent commit's counts, for the record (1-owner / 4-owner):
//
//	native           Put 32/117   Get 34/125   Acc 32/117
//	armci-mpi MPI-2  Put 45/165   Get 46/167   Acc 51/179
//	armci-mpi MPI-3  Put 43/138   Get 37/133   Acc 49/152
//
// that is, 29 objects in GA for the first owner and 26 for each
// further one; GA's own share is now 0 (native's 3/5/3 per owner are
// PutS/GetS/AccS as pinned by harness TestWarmDirectOpsAllocsPinned).
func TestWarmTransferAllocsPinned(t *testing.T) {
	mpi2 := armcimpi.DefaultOptions()
	mpi2.UseMPI3 = false
	mpi3 := armcimpi.DefaultOptions()
	mpi3.UseMPI3 = true
	type pins struct{ put, get, acc [2]float64 } // [1-owner, 4-owner]
	for _, c := range []struct {
		name string
		impl harness.Impl
		opt  armcimpi.Options
		max  pins
	}{
		{"native", harness.ImplNative, mpi2, pins{put: [2]float64{3, 12}, get: [2]float64{5, 20}, acc: [2]float64{3, 12}}},
		{"armci-mpi/mpi2", harness.ImplARMCIMPI, mpi2, pins{put: [2]float64{16, 60}, get: [2]float64{17, 62}, acc: [2]float64{22, 74}}},
		{"armci-mpi/mpi3", harness.ImplARMCIMPI, mpi3, pins{put: [2]float64{14, 33}, get: [2]float64{8, 28}, acc: [2]float64{20, 47}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			j, err := harness.NewJob(harness.TestPlatform(), 4, c.impl, c.opt)
			must(t, err)
			must(t, j.Eng.Run(4, func(p *sim.Proc) {
				e := NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
				a, err := e.Create("pinned", F64, []int{16, 16})
				must(t, err)
				if e.Me() == 0 {
					for k, patch := range [][2][]int{{{9, 9}, {12, 12}}, {{3, 2}, {12, 13}}} {
						lo, hi := patch[0], patch[1]
						vals := make([]float64, a.reqLen(lo, hi))
						for _, op := range []struct {
							name string
							max  float64
							f    func() error
						}{
							{"Put", c.max.put[k], func() error { return a.Put(lo, hi, vals) }},
							{"Get", c.max.get[k], func() error { return a.Get(lo, hi, vals) }},
							{"Acc", c.max.acc[k], func() error { return a.Acc(lo, hi, vals, 2) }},
						} {
							// The other ranks are parked in the Sync below, so the
							// window holds rank 0's allocations only.
							got := testing.AllocsPerRun(20, func() {
								must(t, op.f())
								e.Rt.AllFence()
							})
							if got > op.max {
								t.Errorf("warm %s over %d owner(s) allocates %v objects, pinned at %v", op.name, 1+3*k, got, op.max)
							}
						}
					}
				}
				e.Sync()
				must(t, a.Destroy())
			}))
		})
	}
}
