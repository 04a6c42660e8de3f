package ga

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// variants are the six runtime configurations the harness's runtime
// tests run: every ARMCI implementation, and the two on MPI RMA with
// MPI-3 on as well.
var variants = []struct {
	name string
	impl harness.Impl
	mpi3 bool
}{
	{"native", harness.ImplNative, false},
	{"armci-mpi", harness.ImplARMCIMPI, false},
	{"armci-mpi3", harness.ImplARMCIMPI, true},
	{"armci-ds", harness.ImplDataServer, false},
	{"dartmpi", harness.ImplDartMPI, false},
	{"dartmpi-mpi3", harness.ImplDartMPI, true},
}

// forVariants runs body once per variant on a fresh n-rank job; body
// starts the job.
func forVariants(t *testing.T, n int, body func(t *testing.T, j *harness.Job)) {
	t.Helper()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opt := armcimpi.DefaultOptions()
			opt.UseMPI3 = v.mpi3
			j, err := harness.NewJob(harness.TestPlatform(), n, v.impl, opt)
			if err != nil {
				t.Fatal(err)
			}
			body(t, j)
		})
	}
}

// runGA executes body under every runtime variant.
func runGA(t *testing.T, n int, body func(t *testing.T, e *Env)) {
	t.Helper()
	forVariants(t, n, func(t *testing.T, j *harness.Job) {
		err := j.Eng.Run(n, func(p *sim.Proc) {
			body(t, NewEnv(j.Runtime(p), j.MpiWorld.Rank(p)))
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributionCoversArray(t *testing.T) {
	check := func(d0, d1 uint8, np uint8) bool {
		dims := []int{int(d0%40) + 1, int(d1%40) + 1}
		nprocs := int(np%16) + 1
		dist := newDistribution(dims, nprocs)
		seen := make(map[[2]int]int)
		for o := 0; o < dist.OwnerCount(); o++ {
			lo, hi, ok := dist.Block(o)
			if !ok {
				continue
			}
			for i := lo[0]; i <= hi[0]; i++ {
				for j := lo[1]; j <= hi[1]; j++ {
					seen[[2]int{i, j}]++
					if dist.OwnerOfIndex([]int{i, j}) != o {
						return false
					}
				}
			}
		}
		if len(seen) != dims[0]*dims[1] {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectMatchesNaive(t *testing.T) {
	check := func(d0, d1, np, l0, l1, h0, h1 uint8) bool {
		dims := []int{int(d0%30) + 1, int(d1%30) + 1}
		dist := newDistribution(dims, int(np%12)+1)
		lo := []int{int(l0) % dims[0], int(l1) % dims[1]}
		hi := []int{lo[0] + int(h0)%(dims[0]-lo[0]), lo[1] + int(h1)%(dims[1]-lo[1])}
		patches := dist.Intersect(lo, hi)
		// Every element of [lo,hi] must appear in exactly one patch,
		// owned by the right process.
		count := 0
		for _, p := range patches {
			for i := p.Lo[0]; i <= p.Hi[0]; i++ {
				for j := p.Lo[1]; j <= p.Hi[1]; j++ {
					if dist.OwnerOfIndex([]int{i, j}) != p.Owner {
						return false
					}
					count++
				}
			}
		}
		return count == (hi[0]-lo[0]+1)*(hi[1]-lo[1]+1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFactorGridRespectsDims(t *testing.T) {
	grid := factorGrid(8, []int{2, 100})
	if grid[0] > 2 {
		t.Errorf("grid %v splits dim of extent 2 into %d", grid, grid[0])
	}
	p := grid[0] * grid[1]
	if p > 8 {
		t.Errorf("grid %v exceeds process count", grid)
	}
	grid1 := factorGrid(6, []int{50})
	if grid1[0] != 6 {
		t.Errorf("1-D grid = %v, want [6]", grid1)
	}
}

func TestPutGetRoundTrip2D(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a, err := e.Create("A", F64, []int{17, 23})
		must(t, err)
		if e.Me() == 0 {
			lo, hi := []int{2, 3}, []int{12, 19}
			n := (12 - 2 + 1) * (19 - 3 + 1)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i) + 0.5
			}
			must(t, a.Put(lo, hi, vals))
			out := make([]float64, n)
			must(t, a.Get(lo, hi, out))
			for i := range out {
				if out[i] != vals[i] {
					t.Fatalf("elem %d = %v, want %v", i, out[i], vals[i])
				}
			}
			// Single elements are retrievable too.
			one := make([]float64, 1)
			must(t, a.Get([]int{5, 7}, []int{5, 7}, one))
			want := float64((5-2)*17+(7-3)) + 0.5
			if one[0] != want {
				t.Fatalf("element (5,7) = %v, want %v", one[0], want)
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

func TestPutSpansMultipleOwners(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a, err := e.Create("A", F64, []int{16, 16})
		must(t, err)
		// Figure 2: a patch touching all four blocks.
		if e.Me() == 1 {
			patches, err := a.LocateRegion([]int{0, 0}, []int{15, 15})
			must(t, err)
			if len(patches) != 4 {
				t.Errorf("full-range fan-out = %d patches, want 4", len(patches))
			}
			vals := make([]float64, 256)
			for i := range vals {
				vals[i] = float64(i)
			}
			must(t, a.Put([]int{0, 0}, []int{15, 15}, vals))
		}
		e.Sync()
		// Every rank verifies its own block through direct access.
		blk, err := a.Access()
		if err == nil {
			d, f := blk.Dims(), blk.F64s()
			for i := 0; i < d[0]; i++ {
				for j := 0; j < d[1]; j++ {
					want := float64((blk.Lo[0]+i)*16 + blk.Lo[1] + j)
					if got := f[i*d[1]+j]; got != want {
						t.Fatalf("rank %d block (%d,%d) = %v, want %v", e.Me(), i, j, got, want)
					}
				}
			}
			must(t, blk.Release())
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

func TestAccumulateConcurrent(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a, err := e.Create("acc", F64, []int{8, 8})
		must(t, err)
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = 1
		}
		// All ranks accumulate 2x ones over the whole array.
		must(t, a.Acc([]int{0, 0}, []int{7, 7}, vals, 2))
		e.Sync()
		out := make([]float64, 64)
		must(t, a.Get([]int{0, 0}, []int{7, 7}, out))
		for i, v := range out {
			if v != 8 { // 4 ranks x alpha 2
				t.Fatalf("elem %d = %v, want 8", i, v)
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

func Test3DArray(t *testing.T) {
	runGA(t, 8, func(t *testing.T, e *Env) {
		a, err := e.Create("T", F64, []int{6, 10, 14})
		must(t, err)
		if e.Me() == 3 {
			lo, hi := []int{1, 2, 3}, []int{4, 8, 11}
			n := 4 * 7 * 9
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i * 2)
			}
			must(t, a.Put(lo, hi, vals))
			out := make([]float64, n)
			must(t, a.Get(lo, hi, out))
			for i := range out {
				if out[i] != vals[i] {
					t.Fatalf("3D elem %d = %v, want %v", i, out[i], vals[i])
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

// TestReadIncCounter draws the NXTVAL pattern on every runtime: four
// ranks take five task ids each from one counter, and across the job
// every id in 0..19 must be drawn exactly once — by whichever rank —
// which is what the atomic paths (a direct runtime's Rmw record,
// ARMCI-MPI's mutex epochs, MPI-3 fetch-and-op) must guarantee.
func TestReadIncCounter(t *testing.T) {
	const ranks, draws = 4, 5
	var drawn [ranks * draws]int // per task id, in the current job
	runGA(t, ranks, func(t *testing.T, e *Env) {
		c, err := e.Create("nxtval", I64, []int{1})
		must(t, err)
		must(t, c.FillI64(0))
		for i := 0; i < draws; i++ {
			v, err := c.ReadInc([]int{0}, 1)
			must(t, err)
			if v < 0 || v >= int64(len(drawn)) {
				t.Errorf("rank %d drew task id %d, out of range", e.Me(), v)
				continue
			}
			drawn[v]++
		}
		e.Sync()
		if e.Me() == 0 {
			for id, n := range drawn {
				if n != 1 {
					t.Errorf("task id %d drawn %d times across the job, want once", id, n)
				}
			}
			drawn = [len(drawn)]int{} // the next variant is a new job
		}
		e.Sync()
		must(t, c.Destroy())
	})
}

func TestFillZeroCopy(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a, err := e.Create("src", F64, []int{12, 9})
		must(t, err)
		b, err := e.Create("dst", F64, []int{12, 9})
		must(t, err)
		must(t, a.Fill(3.25))
		must(t, a.CopyTo(b))
		if e.Me() == 2 {
			out := make([]float64, 12*9)
			must(t, b.Get([]int{0, 0}, []int{11, 8}, out))
			for i, v := range out {
				if v != 3.25 {
					t.Fatalf("copied elem %d = %v", i, v)
				}
			}
		}
		must(t, a.Zero())
		if e.Me() == 1 {
			out := make([]float64, 12*9)
			must(t, a.Get([]int{0, 0}, []int{11, 8}, out))
			for i, v := range out {
				if v != 0 {
					t.Fatalf("zeroed elem %d = %v", i, v)
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
		must(t, b.Destroy())
	})
}

func TestDistributionQueries(t *testing.T) {
	runGA(t, 4, func(t *testing.T, e *Env) {
		a, err := e.Create("A", F64, []int{20, 20})
		must(t, err)
		covered := 0
		for r := 0; r < e.Nprocs(); r++ {
			lo, hi, ok := a.Distribution(r)
			if !ok {
				continue
			}
			covered += (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
			owner, err := a.Locate(lo)
			must(t, err)
			if owner != r {
				t.Errorf("Locate(%v) = %d, want %d", lo, owner, r)
			}
		}
		if covered != 400 {
			t.Errorf("blocks cover %d elements, want 400", covered)
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

func TestGroupArray(t *testing.T) {
	runGA(t, 6, func(t *testing.T, e *Env) {
		g, err := e.Rt.GroupCreateCollective([]int{1, 3, 5})
		must(t, err)
		if g == nil {
			e.Sync()
			return
		}
		a, err := e.CreateOnGroup(g, "grp", F64, []int{9, 9})
		must(t, err)
		if e.Me() == 1 {
			vals := make([]float64, 81)
			for i := range vals {
				vals[i] = float64(i)
			}
			must(t, a.Put([]int{0, 0}, []int{8, 8}, vals))
			out := make([]float64, 81)
			must(t, a.Get([]int{0, 0}, []int{8, 8}, out))
			for i := range out {
				if out[i] != vals[i] {
					t.Fatalf("group array elem %d", i)
				}
			}
		}
		must(t, a.Destroy())
		e.Sync()
	})
}

func TestCollectives(t *testing.T) {
	runGA(t, 5, func(t *testing.T, e *Env) {
		vals := []float64{float64(e.Me() + 1), -float64(e.Me())}
		sum := e.GopF64(mpi.OpSum, vals)
		if sum[0] != 15 || sum[1] != -10 {
			t.Errorf("Dgop sum = %v", sum)
		}
		if vals[0] != 15 || vals[1] != -10 {
			t.Errorf("rank %d: Dgop left vals = %v, want the result in place", e.Me(), vals)
		}
		var data []float64
		if e.Me() == 2 {
			data = []float64{1.5, -2}
		} else {
			data = make([]float64, 2)
		}
		out := e.BrdcstF64(2, data)
		if out[0] != 1.5 || out[1] != -2 {
			t.Errorf("Brdcst = %v", out)
		}
	})
}

func TestErrorPaths(t *testing.T) {
	runGA(t, 2, func(t *testing.T, e *Env) {
		if _, err := e.Create("bad", F64, []int{0}); err == nil {
			t.Error("zero-extent array accepted")
		}
		a, err := e.Create("A", F64, []int{4, 4})
		must(t, err)
		if err := a.Put([]int{0, 0}, []int{4, 4}, make([]float64, 25)); err == nil {
			t.Error("out-of-bounds put accepted")
		}
		if err := a.Put([]int{0, 0}, []int{1, 1}, make([]float64, 3)); err == nil {
			t.Error("wrong buffer length accepted")
		}
		if _, err := a.ReadInc([]int{0, 0}, 1); err == nil {
			t.Error("ReadInc on double array accepted")
		}
		e.Sync()
		must(t, a.Destroy())
		if err := a.Destroy(); err == nil {
			t.Error("double destroy accepted")
		}
	})
}

func TestUnevenDims(t *testing.T) {
	// Dims that do not divide evenly among processes.
	runGA(t, 3, func(t *testing.T, e *Env) {
		a, err := e.Create("odd", F64, []int{7, 5})
		must(t, err)
		if e.Me() == 0 {
			vals := make([]float64, 35)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			must(t, a.Put([]int{0, 0}, []int{6, 4}, vals))
			out := make([]float64, 35)
			must(t, a.Get([]int{0, 0}, []int{6, 4}, out))
			for i := range out {
				if out[i] != vals[i] {
					t.Fatalf("uneven elem %d = %v", i, out[i])
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

func TestMoreRanksThanElements(t *testing.T) {
	runGA(t, 8, func(t *testing.T, e *Env) {
		a, err := e.Create("tiny", F64, []int{2, 2})
		must(t, err)
		if e.Me() == 7 {
			must(t, a.Put([]int{0, 0}, []int{1, 1}, []float64{1, 2, 3, 4}))
			out := make([]float64, 4)
			must(t, a.Get([]int{0, 0}, []int{1, 1}, out))
			for i, v := range out {
				if v != float64(i+1) {
					t.Fatalf("tiny elem %d = %v", i, v)
				}
			}
		}
		e.Sync()
		must(t, a.Destroy())
	})
}

// TestAddrVectorsReadOnly runs a GA conformance program — world, group
// and mostly-empty arrays through put, accumulate, get, transpose,
// DGEMM, scale, dot, scatter/gather and read-increment — on every
// runtime, and checks that the address vector each Create received from
// ARMCI_Malloc is unchanged at the end. On ARMCI-MPI and DART-MPI that
// vector is the translation directory's own record, one slice shared by
// every member, which the test also checks: a write through it would
// corrupt every rank's view of the allocation.
func TestAddrVectorsReadOnly(t *testing.T) {
	const n = 6
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI, harness.ImplDataServer, harness.ImplDartMPI} {
		t.Run(string(impl), func(t *testing.T) {
			shared := map[string]map[*armci.Addr]bool{} // array name -> base of each member's vector
			j, err := harness.NewJob(harness.TestPlatform(), n, impl, armcimpi.DefaultOptions())
			must(t, err)
			err = j.Eng.Run(n, func(p *sim.Proc) {
				rt := j.Runtime(p)
				e := NewEnv(rt, j.MpiWorld.Rank(p))
				var arrays []*Array
				var before [][]armci.Addr
				create := func(a *Array, err error) *Array {
					must(t, err)
					arrays = append(arrays, a)
					before = append(before, append([]armci.Addr(nil), a.addrs...))
					if shared[a.Name()] == nil {
						shared[a.Name()] = map[*armci.Addr]bool{}
					}
					shared[a.Name()][&a.addrs[0]] = true
					return a
				}
				a := create(e.Create("A", F64, []int{17, 23}))
				b := create(e.Create("B", F64, []int{23, 17}))
				c := create(e.Create("C", F64, []int{17, 17}))
				tiny := create(e.Create("tiny", F64, []int{2, 2})) // empty slices on most ranks
				ctr := create(e.Create("ctr", I64, []int{1}))
				g, err := rt.GroupCreateCollective([]int{1, 3, 5})
				must(t, err)
				var grp *Array
				if g != nil {
					grp = create(e.CreateOnGroup(g, "grp", F64, []int{9, 9}))
				}
				vals := make([]float64, 17*23)
				for i := range vals {
					vals[i] = float64(i%7) - 2
				}
				if e.Me() == 0 {
					must(t, a.Put([]int{0, 0}, []int{16, 22}, vals))
				}
				e.Sync()
				must(t, a.Acc([]int{3, 4}, []int{5, 9}, vals[:18], 0.5))
				e.Sync()
				must(t, Transpose(a, b))
				must(t, Dgemm(1, a, b, 0, c, 5, nil))
				must(t, c.Scale(-2))
				_, err = Dot(a, a)
				must(t, err)
				must(t, tiny.Scatter([][]int{{e.Me() % 2, 1}}, []float64{float64(e.Me())}))
				e.Sync()
				got := make([]float64, 2)
				must(t, tiny.Gather([][]int{{0, 1}, {1, 1}}, got))
				_, err = ctr.ReadInc([]int{0}, 1)
				must(t, err)
				if grp != nil {
					must(t, grp.Fill(1.5))
					out := make([]float64, 81)
					must(t, grp.Get([]int{0, 0}, []int{8, 8}, out))
				}
				e.Sync()
				for i, x := range arrays {
					if fmt.Sprint(x.addrs) != fmt.Sprint(before[i]) {
						t.Errorf("rank %d: array %s address vector %v, was %v at Create", e.Me(), x.Name(), x.addrs, before[i])
					}
				}
				if grp != nil {
					must(t, grp.Destroy())
				}
				for _, x := range arrays[:5] {
					must(t, x.Destroy())
				}
			})
			j.M.Retire()
			must(t, err)
			if impl == harness.ImplARMCIMPI || impl == harness.ImplDartMPI {
				for name, bases := range shared {
					if len(bases) != 1 {
						t.Errorf("array %s: %d distinct address vectors, want the directory's one", name, len(bases))
					}
				}
			}
		})
	}
}
