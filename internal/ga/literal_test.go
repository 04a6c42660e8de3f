package ga_test

import (
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestLiteralBoundsAllocateNothing calls Get and Acc from another
// package, as nwchem does, with lo and hi as slice literals at the call
// site, through the one runtime whose warm contiguous get and
// unit-scale accumulate allocate nothing themselves (ARMCI-MPI on
// MPI-2): the literals stay on the caller's stack, so the whole call
// allocates 0 objects. When Get's shared body was generic, a call from
// here leaked both, two objects per Get.
func TestLiteralBoundsAllocateNothing(t *testing.T) {
	j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Eng.Run(4, func(p *sim.Proc) {
		e := ga.NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
		a, err := e.Create("literal", ga.F64, []int{16, 16})
		must(err)
		if e.Me() == 0 {
			vals := make([]float64, 16)
			for _, op := range []struct {
				name string
				f    func()
			}{
				{"Get", func() { must(a.Get([]int{9, 9}, []int{12, 12}, vals)) }},
				{"Acc", func() { must(a.Acc([]int{9, 9}, []int{12, 12}, vals, 1)) }},
			} {
				if got := testing.AllocsPerRun(20, op.f); got != 0 {
					t.Errorf("warm %s with literal bounds allocates %v objects, want 0", op.name, got)
				}
			}
		}
		e.Sync()
		must(a.Destroy())
	}))
}
