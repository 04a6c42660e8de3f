// Counter: dynamic load balancing with the NXTVAL shared counter and
// mutex-protected critical sections — the asynchronous, data-driven
// synchronization of SectionV.D. Processes with deliberately unequal
// speeds drain a task bag through atomic fetch-and-add; a mutex guards
// a shared log structure. Run it on both runtimes to compare the cost
// of native NIC atomics against ARMCI-MPI's mutex-based emulation (and
// try -mpi3 for the SectionVIII.B extension).
//
//	go run ./examples/counter [-impl native|armci-mpi] [-mpi3]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	implFlag := flag.String("impl", "armci-mpi", "ARMCI implementation: native, armci-mpi, armci-ds, or dartmpi")
	np := flag.Int("np", 8, "number of simulated processes")
	tasks := flag.Int("tasks", 200, "number of tasks in the bag")
	mpi3 := flag.Bool("mpi3", false, "use MPI-3 fetch-and-op for the counter (armci-mpi only)")
	platName := flag.String("platform", platform.CrayXT5, "simulated platform")
	flag.Parse()

	impl, err := harness.ParseImpl(*implFlag)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := platform.Lookup(*platName)
	if err != nil {
		log.Fatal(err)
	}
	opt := armcimpi.DefaultOptions()
	opt.UseMPI3 = *mpi3
	job, err := harness.NewJob(plat, *np, impl, opt)
	if err != nil {
		log.Fatal(err)
	}
	total := *tasks
	perRank := make([]int, *np)
	err = job.Eng.Run(*np, func(p *sim.Proc) {
		rt := job.Runtime(p)
		env := ga.NewEnv(rt, job.MpiWorld.Rank(p))
		counter, err := env.Create("nxtval", ga.I64, []int{1})
		if err != nil {
			log.Fatal(err)
		}
		logArr, err := env.Create("log", ga.F64, []int{total})
		if err != nil {
			log.Fatal(err)
		}
		mux, err := rt.CreateMutexes(1)
		if err != nil {
			log.Fatal(err)
		}

		// Heterogeneous speeds: rank r takes (1 + r%3) microseconds per
		// task; the counter balances the load automatically.
		speed := sim.Time(1+env.Me()%3) * sim.Microsecond
		buf := make([]float64, 1)
		for {
			t, err := counter.ReadInc([]int{0}, 1)
			if err != nil {
				log.Fatal(err)
			}
			if t >= int64(total) {
				break
			}
			p.Elapse(speed) // "compute"
			// Mutex-guarded update of the shared log entry.
			mux.Lock(0, 0)
			buf[0] = float64(env.Me())
			if err := logArr.Put([]int{int(t)}, []int{int(t)}, buf); err != nil {
				log.Fatal(err)
			}
			mux.Unlock(0, 0)
			perRank[env.Me()]++
		}
		env.Sync()
		if env.Me() == 0 {
			// Verify every task was logged by exactly one rank.
			all := make([]float64, total)
			if err := logArr.Get([]int{0}, []int{total - 1}, all); err != nil {
				log.Fatal(err)
			}
			claimed := 0
			for _, v := range all {
				if v >= 0 && v < float64(*np) {
					claimed++
				}
			}
			fmt.Printf("[%s] %d/%d tasks completed and logged\n", rt.Name(), claimed, total)
		}
		env.Sync()
		if err := mux.Destroy(); err != nil {
			log.Fatal(err)
		}
		if err := counter.Destroy(); err != nil {
			log.Fatal(err)
		}
		if err := logArr.Destroy(); err != nil {
			log.Fatal(err)
		}
		_ = armci.FetchAndAdd
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tasks per rank (speeds cycle 1,2,3 us): %v\n", perRank)
	fmt.Printf("simulated time: %v\n", job.Eng.Stats().FinalTime)
}
