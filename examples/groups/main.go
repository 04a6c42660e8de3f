// Groups: processor groups and noncollective group creation
// (SectionV.A). A dynamic subset of processes forms a group *without*
// the participation of the others — the recursive intercommunicator
// create-and-merge algorithm — then allocates a group-scoped global
// array and works on it while the remaining processes do something
// else entirely. This is the capability that lets GA applications run
// multi-level parallelism (e.g. NWChem's task groups).
//
//	go run ./examples/groups [-impl native|armci-mpi] [-np 12]
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
	np := flag.Int("np", 12, "number of simulated processes")
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

		// Even ranks form a group WITHOUT the odd ranks participating:
		// the odd ranks never enter the group-creation call.
		if me%2 == 0 {
			var members []int
			for r := 0; r < env.Nprocs(); r += 2 {
				members = append(members, r)
			}
			g, err := rt.GroupCreate(members) // noncollective!
			if err != nil {
				log.Fatal(err)
			}
			a, err := env.CreateOnGroup(g, "evens", ga.F64, []int{32, 32})
			if err != nil {
				log.Fatal(err)
			}
			// Group rank 0 writes; the last member reads one-sidedly.
			if g.RankOf(me) == 0 {
				vals := make([]float64, 32*32)
				for i := range vals {
					vals[i] = float64(i) / 2
				}
				if err := a.Put([]int{0, 0}, []int{31, 31}, vals); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("[%s] group of %d even ranks built noncollectively; data written\n",
					rt.Name(), g.Size())
			}
			// Synchronize within the group only.
			rt.Fence(g.AbsoluteID(0))
			g.Comm.Barrier()
			if g.RankOf(me) == g.Size()-1 {
				probe := make([]float64, 4)
				if err := a.Get([]int{31, 28}, []int{31, 31}, probe); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("[%s] last member read tail values %.1f..%.1f via absolute ids\n",
					rt.Name(), probe[0], probe[3])
			}
			g.Comm.Barrier()
			if err := a.Destroy(); err != nil {
				log.Fatal(err)
			}
		} else {
			// Odd ranks proceed independently — they are untouched by the
			// even group's creation, allocation, and communication.
			p.Elapse(50 * sim.Microsecond)
		}
		env.Sync() // world-wide rendezvous at the end
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated time: %v\n", job.Eng.Stats().FinalTime)
}
