package nwchem

import (
	"math"
	"os"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestMain runs every test of this package with the payload pool
// poisoning each buffer as it is released: a task that reads a pooled
// tile before overwriting it (a get's landing, CCSD's clear of its
// accumulate source) computes with 0xDB bytes and fails the numeric
// comparison it sits under.
func TestMain(m *testing.M) {
	fabric.BufHook = func(b []byte, put bool) {
		if put {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	os.Exit(m.Run())
}

// runProxy executes the proxy on n ranks under the given implementation
// and returns the rank-0 result plus the final virtual time.
func runProxy(t *testing.T, n int, impl harness.Impl, p Params, triples bool) (Result, sim.Time) {
	t.Helper()
	j, err := harness.NewJob(harness.TestPlatform(), n, impl, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	totalTasks := 0
	err = j.Eng.Run(n, func(pr *sim.Proc) {
		rt := j.Runtime(pr)
		env := ga.NewEnv(rt, j.MpiWorld.Rank(pr))
		sys, err := Setup(env, j.M, p)
		if err != nil {
			t.Error(err)
			return
		}
		var res Result
		if triples {
			res, err = sys.Triples()
		} else {
			res, err = sys.CCSD()
		}
		if err != nil {
			t.Error(err)
			return
		}
		totalTasks += res.Tasks
		if rt.Rank() == 0 {
			out = res
		}
		if err := sys.Teardown(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.Tasks = totalTasks
	return out, j.Eng.Stats().FinalTime
}

func amplitude(row, col int) float64 { return amplitudes.at(row, col) }
func integral(row, col int) float64  { return integrals.at(row, col) }

// serialReference computes R = T2 * V and the energy functional
// directly.
func serialReference(p Params) float64 {
	oo, vv := p.oo(), p.vv()
	t2 := make([]float64, oo*vv)
	v := make([]float64, vv*vv)
	for i := 0; i < oo; i++ {
		for j := 0; j < vv; j++ {
			t2[i*vv+j] = amplitude(i, j)
		}
	}
	for i := 0; i < vv; i++ {
		for j := 0; j < vv; j++ {
			v[i*vv+j] = integral(i, j)
		}
	}
	r := make([]float64, oo*vv)
	for i := 0; i < oo; i++ {
		for k := 0; k < vv; k++ {
			a := t2[i*vv+k]
			for j := 0; j < vv; j++ {
				r[i*vv+j] += a * v[k*vv+j]
			}
		}
	}
	e := 0.0
	for i := range r {
		e += t2[i] * r[i]
	}
	return e
}

func TestCCSDMatchesSerialReference(t *testing.T) {
	p := Params{NO: 3, NV: 6, Blk: 10, Iter: 1, Numeric: true}
	want := serialReference(p)
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			res, _ := runProxy(t, 4, impl, p, false)
			if math.Abs(res.Energy-want) > 1e-9*math.Abs(want)+1e-12 {
				t.Errorf("energy = %.12g, serial reference %.12g", res.Energy, want)
			}
		})
	}
}

func TestCCSDIterationIdempotent(t *testing.T) {
	// R is zeroed per iteration, so 3 iterations give the same energy
	// as 1.
	p1 := Params{NO: 2, NV: 4, Blk: 8, Iter: 1, Numeric: true}
	p3 := p1
	p3.Iter = 3
	r1, _ := runProxy(t, 2, harness.ImplARMCIMPI, p1, false)
	r3, _ := runProxy(t, 2, harness.ImplARMCIMPI, p3, false)
	if math.Abs(r1.Energy-r3.Energy) > 1e-9 {
		t.Errorf("energy changed across iterations: %v vs %v", r1.Energy, r3.Energy)
	}
}

func TestAllTasksExecutedExactlyOnce(t *testing.T) {
	p := Params{NO: 2, NV: 8, Blk: 16, Iter: 2}
	res, _ := runProxy(t, 4, harness.ImplARMCIMPI, p, false)
	nb := p.nblocks()
	want := nb * nb * p.Iter
	if res.Tasks != want {
		t.Errorf("executed %d tasks, want %d", res.Tasks, want)
	}
}

func TestTriplesTasksAndEnergyConsistency(t *testing.T) {
	p := Params{NO: 3, NV: 6, Blk: 12, Iter: 1, Numeric: true}
	var energies []float64
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI} {
		res, _ := runProxy(t, 3, impl, p, true)
		ntrip := p.NO * (p.NO + 1) * (p.NO + 2) / 6
		if want := ntrip * p.nblocks(); res.Tasks != want {
			t.Errorf("%s: (T) executed %d tasks, want %d", impl, res.Tasks, want)
		}
		energies = append(energies, res.Energy)
	}
	if math.Abs(energies[0]-energies[1]) > 1e-9 {
		t.Errorf("(T) energy differs across runtimes: %v vs %v", energies[0], energies[1])
	}
}

func TestMoreRanksFasterVirtualTime(t *testing.T) {
	// The proxy must exhibit strong scaling in virtual time. The problem
	// carries real per-task flops: a compute-free run is communication
	// bound, and two ranks sharing a node (all traffic on the shm fast
	// path) then beat any larger cross-node job.
	p := Params{NO: 4, NV: 16, Blk: 32, Iter: 1, FlopMult: 40}
	_, t2 := runProxy(t, 2, harness.ImplARMCIMPI, p, false)
	_, t8 := runProxy(t, 8, harness.ImplARMCIMPI, p, false)
	if t8 >= t2 {
		t.Errorf("8 ranks (%v) not faster than 2 ranks (%v)", t8, t2)
	}
}

// W5Scaled returns parameters shaped like the paper's water-pentamer
// benchmark, scaled down by the given factor (1 = full w5: no=20,
// nv=435 — far too large to simulate; typical scales are 8-16).
func W5Scaled(scale int) Params {
	if scale < 1 {
		scale = 1
	}
	no := 20 / min(scale, 5)
	if no < 2 {
		no = 2
	}
	nv := 435 / scale
	if nv < 8 {
		nv = 8
	}
	blk := nv * nv / 8
	if blk < 16 {
		blk = 16
	}
	return Params{NO: no, NV: nv, Blk: blk, Iter: 2}
}

func TestW5ScaledShapes(t *testing.T) {
	p := W5Scaled(16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NO < 2 || p.NV < 8 {
		t.Errorf("scaled params degenerate: %+v", p)
	}
	full := W5Scaled(1)
	if full.NO != 20 || full.NV != 435 {
		t.Errorf("unscaled w5 = %+v, want no=20 nv=435", full)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{NO: 0, NV: 4, Blk: 4, Iter: 1},
		{NO: 2, NV: 0, Blk: 4, Iter: 1},
		{NO: 2, NV: 4, Blk: 0, Iter: 1},
		{NO: 2, NV: 4, Blk: 4, Iter: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestLoadBalanceSpreadsTasks(t *testing.T) {
	// With enough tasks, the NXTVAL counter spreads work across ranks:
	// no rank should execute everything.
	p := Params{NO: 4, NV: 12, Blk: 16, Iter: 1}
	j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([]int, 4)
	err = j.Eng.Run(4, func(pr *sim.Proc) {
		rt := j.Runtime(pr)
		env := ga.NewEnv(rt, j.MpiWorld.Rank(pr))
		sys, err := Setup(env, j.M, p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := sys.CCSD()
		if err != nil {
			t.Error(err)
			return
		}
		perRank[rt.Rank()] = res.Tasks
		if err := sys.Teardown(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	busiest := 0
	for _, c := range perRank {
		total += c
		if c > busiest {
			busiest = c
		}
	}
	if total == 0 {
		t.Fatal("no tasks ran")
	}
	if busiest == total && total > 8 {
		t.Errorf("one rank executed all %d tasks; load balancing broken (%v)", total, perRank)
	}
}
