// Quickstart: create a distributed global array over a simulated
// cluster, write a patch from one process, read it from another, and
// accumulate into it from everyone — the GA model of SectionII.B,
// runnable on either ARMCI implementation.
//
//	go run ./examples/quickstart [-impl native|armci-mpi] [-np 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	implFlag := flag.String("impl", "armci-mpi", "ARMCI implementation: native, armci-mpi, armci-ds, or dartmpi")
	np := flag.Int("np", 8, "number of simulated processes")
	platName := flag.String("platform", platform.InfiniBand, "simulated platform")
	flag.Parse()

	impl, err := harness.ParseImpl(*implFlag)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := platform.Lookup(*platName)
	if err != nil {
		log.Fatal(err)
	}
	job, err := harness.NewJob(plat, *np, impl, armcimpi.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	err = job.Eng.Run(*np, func(p *sim.Proc) {
		rt := job.Runtime(p)
		env := ga.NewEnv(rt, job.MpiWorld.Rank(p))
		me := env.Me()

		// Collectively create a 64x64 double-precision global array.
		a, err := env.Create("demo", ga.F64, []int{64, 64})
		if err != nil {
			log.Fatal(err)
		}

		// Process 0 writes a patch spanning several owners (Figure 2's
		// fan-out happens underneath).
		if me == 0 {
			vals := make([]float64, 32*32)
			for i := range vals {
				vals[i] = float64(i)
			}
			if err := a.Put([]int{16, 16}, []int{47, 47}, vals); err != nil {
				log.Fatal(err)
			}
			patches, _ := a.LocateRegion([]int{16, 16}, []int{47, 47})
			fmt.Printf("[%s] put fanned out to %d owner patches\n", rt.Name(), len(patches))
		}
		env.Sync()

		// Another process reads it back one-sidedly.
		if me == env.Nprocs()-1 {
			out := make([]float64, 32*32)
			if err := a.Get([]int{16, 16}, []int{47, 47}, out); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%s] rank %d read the patch: corner values %.0f, %.0f\n",
				rt.Name(), me, out[0], out[len(out)-1])
		}
		env.Sync()

		// Everyone accumulates 1.0 into the full array (atomic).
		ones := make([]float64, 64*64)
		for i := range ones {
			ones[i] = 1
		}
		if err := a.Acc([]int{0, 0}, []int{63, 63}, ones, 1.0); err != nil {
			log.Fatal(err)
		}
		env.Sync()
		if me == 0 {
			probe := make([]float64, 1)
			if err := a.Get([]int{0, 0}, []int{0, 0}, probe); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%s] after %d concurrent accumulates, a[0,0] = %.0f\n",
				rt.Name(), env.Nprocs(), probe[0])
		}
		env.Sync()
		if err := a.Destroy(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated time: %v\n", job.Eng.Stats().FinalTime)
}
