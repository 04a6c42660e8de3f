package ga

import (
	"fmt"
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

// distCache finds a shape it holds without building anything, and
// tells apart shapes that differ only in rank count or dimensionality.
func TestDistCacheHitAllocatesNothing(t *testing.T) {
	dims := []int{16, 16}
	d := newDistribution(dims, 4)
	if got := testing.AllocsPerRun(100, func() {
		if newDistribution(dims, 4) != d {
			t.Fatal("a second lookup of the same shape built a new record")
		}
	}); got != 0 {
		t.Errorf("a distCache hit allocates %v objects, want 0", got)
	}
	if newDistribution(dims, 2) == d || newDistribution([]int{16, 16, 1}, 4) == d {
		t.Error("a different shape got the cached record")
	}
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
// rank 3's block, the 4-owner patch 10x12 across all blocks), and per
// warm ReadInc (NXTVAL). GA's own share is 0: descriptors and handles
// live in Env slots, and lo and hi stay on the caller's stack. A direct
// runtime carves its nonblocking-get handles, one per owner, from
// chunks of 16: one allocation per 16 gets, which AllocsPerRun's
// integer average rounds to 0. What is left is ARMCI-MPI's: its
// prescale temporary for an accumulate at a
// scale other than 1, and its MPI-2 read-modify-write's scratch; MPI-3
// request handles and lock-all bookkeeping. Before the transports ran
// on records, the 1-owner/4-owner counts were
//
//	native           Put  0/0    Get  3/12   Acc  0/0    ReadInc 5
//	armci-ds         Put  0/0    Get  3/8    Acc  0/0    ReadInc 4
//	armci-mpi MPI-2  Put  0/0    Get  0/0    Acc  4/4    ReadInc 3
//	armci-mpi MPI-3  Put 11/23   Get  4/16   Acc 16/31   ReadInc 4
func TestWarmTransferAllocsPinned(t *testing.T) {
	mpi2 := armcimpi.DefaultOptions()
	mpi2.UseMPI3 = false
	mpi3 := armcimpi.DefaultOptions()
	mpi3.UseMPI3 = true
	type pins struct {
		put, get, acc [2]float64 // [1-owner, 4-owner]
		readInc       float64
	}
	for _, c := range []struct {
		name string
		impl harness.Impl
		opt  armcimpi.Options
		max  pins
	}{
		{"native", harness.ImplNative, mpi2, pins{put: [2]float64{0, 0}, get: [2]float64{0, 0}, acc: [2]float64{0, 0}}},
		{"armci-ds", harness.ImplDataServer, mpi2, pins{put: [2]float64{0, 0}, get: [2]float64{0, 0}, acc: [2]float64{0, 0}}},
		{"armci-mpi/mpi2", harness.ImplARMCIMPI, mpi2, pins{put: [2]float64{0, 0}, get: [2]float64{0, 0}, acc: [2]float64{1, 4}}},
		{"armci-mpi/mpi3", harness.ImplARMCIMPI, mpi3, pins{put: [2]float64{11, 23}, get: [2]float64{4, 16}, acc: [2]float64{16, 31}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			j, err := harness.NewJob(harness.TestPlatform(), 4, c.impl, c.opt)
			must(t, err)
			must(t, j.Eng.Run(4, func(p *sim.Proc) {
				e := NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
				a, err := e.Create("pinned", F64, []int{16, 16})
				must(t, err)
				counter, err := e.Create("nxtval", I64, []int{4})
				must(t, err)
				if e.Me() == 0 {
					if got := testing.AllocsPerRun(20, func() {
						_, err := counter.ReadInc([]int{3}, 1)
						must(t, err)
					}); got > c.max.readInc {
						t.Errorf("warm ReadInc allocates %v objects, pinned at %v", got, c.max.readInc)
					}
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
				must(t, counter.Destroy())
			}))
		})
	}
}

// BenchmarkWarmFanout is the GA layer's own host-cost row: host ns per
// owner of a warm Get and Acc of a patch over 1 and 4 owners (the
// patches TestWarmTransferAllocsPinned pins), on native and on
// ARMCI-MPI. Run it with -benchmem for the objects per call.
func BenchmarkWarmFanout(b *testing.B) {
	patches := map[int][2][]int{1: {{9, 9}, {12, 12}}, 4: {{3, 2}, {12, 13}}}
	for _, rt := range []struct {
		name string
		impl harness.Impl
	}{{"native", harness.ImplNative}, {"armci-mpi", harness.ImplARMCIMPI}} {
		for _, op := range []string{"Get", "Acc"} {
			for _, owners := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/owners=%d", rt.name, op, owners), func(b *testing.B) {
					b.ReportAllocs()
					j, err := harness.NewJob(harness.TestPlatform(), 4, rt.impl, armcimpi.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					err = j.Eng.Run(4, func(p *sim.Proc) {
						e := NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
						a, err := e.Create("fanout", F64, []int{16, 16})
						if err != nil {
							b.Error(err)
							return
						}
						if e.Me() == 0 {
							lo, hi := patches[owners][0], patches[owners][1]
							vals := make([]float64, a.reqLen(lo, hi))
							call := func() error {
								if op == "Get" {
									return a.Get(lo, hi, vals)
								}
								return a.Acc(lo, hi, vals, 1)
							}
							err = call() // warm: records, slots and pools
							b.ResetTimer()
							for i := 0; i < b.N && err == nil; i++ {
								err = call()
							}
							b.StopTimer()
							if err != nil {
								b.Error(err)
							}
						}
						e.Sync()
						if err := a.Destroy(); err != nil {
							b.Error(err)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*owners), "ns/owner")
				})
			}
		}
	}
}
