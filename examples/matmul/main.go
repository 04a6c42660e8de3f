// Matmul: a distributed dense matrix multiply C = A x B over Global
// Arrays, in the block get / local dgemm / accumulate style that
// NWChem's tensor contractions use (the workload class the paper's
// introduction motivates). Tasks are scheduled dynamically through the
// NXTVAL counter, so load balance emerges from GA_Read_inc.
//
//	go run ./examples/matmul [-impl native|armci-mpi] [-np 16] [-n 96]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	implFlag := flag.String("impl", "armci-mpi", "ARMCI implementation: native, armci-mpi, armci-ds, or dartmpi")
	np := flag.Int("np", 16, "number of simulated processes")
	n := flag.Int("n", 96, "matrix dimension")
	blk := flag.Int("blk", 24, "tile size")
	platName := flag.String("platform", platform.CrayXE6, "simulated platform")
	flag.Parse()

	impl, err := harness.ParseImpl(*implFlag)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := platform.Lookup(*platName)
	if err != nil {
		log.Fatal(err)
	}
	if *n%*blk != 0 {
		log.Fatalf("n (%d) must be a multiple of blk (%d)", *n, *blk)
	}
	job, err := harness.NewJob(plat, *np, impl, armcimpi.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	N, B := *n, *blk
	nb := N / B
	err = job.Eng.Run(*np, func(p *sim.Proc) {
		rt := job.Runtime(p)
		env := ga.NewEnv(rt, job.MpiWorld.Rank(p))
		gaA, err := env.Create("A", ga.F64, []int{N, N})
		if err != nil {
			log.Fatal(err)
		}
		gaB, err := env.Create("B", ga.F64, []int{N, N})
		if err != nil {
			log.Fatal(err)
		}
		gaC, err := env.Create("C", ga.F64, []int{N, N})
		if err != nil {
			log.Fatal(err)
		}
		counter, err := env.Create("nxtval", ga.I64, []int{1})
		if err != nil {
			log.Fatal(err)
		}
		// Initialize A and B from closed-form entries so the result is
		// checkable: A[i][j] = i+j, B[i][j] = (i == j) ? 2 : 0, hence
		// C = 2A.
		fill := func(a *ga.Array, f func(i, j int) float64) {
			if blk, err := a.Access(); err == nil {
				d := blk.Dims()
				for i := 0; i < d[0]; i++ {
					for j := 0; j < d[1]; j++ {
						blk.SetF64(f(blk.Lo[0]+i, blk.Lo[1]+j), i, j)
					}
				}
				if err := blk.Release(); err != nil {
					log.Fatal(err)
				}
			}
			env.Sync()
		}
		fill(gaA, func(i, j int) float64 { return float64(i + j) })
		fill(gaB, func(i, j int) float64 {
			if i == j {
				return 2
			}
			return 0
		})

		// Dynamically scheduled tile loop: task t = (ib, jb, kb).
		start := p.Now()
		tasks := 0
		bufA := make([]float64, B*B)
		bufB := make([]float64, B*B)
		bufC := make([]float64, B*B)
		for {
			t, err := counter.ReadInc([]int{0}, 1)
			if err != nil {
				log.Fatal(err)
			}
			if t >= int64(nb*nb*nb) {
				break
			}
			ib := int(t) / (nb * nb)
			jb := (int(t) / nb) % nb
			kb := int(t) % nb
			get := func(a *ga.Array, r, c int, dst []float64) {
				if err := a.Get([]int{r * B, c * B}, []int{r*B + B - 1, c*B + B - 1}, dst); err != nil {
					log.Fatal(err)
				}
			}
			get(gaA, ib, kb, bufA)
			get(gaB, kb, jb, bufB)
			for i := range bufC {
				bufC[i] = 0
			}
			for i := 0; i < B; i++ {
				for k := 0; k < B; k++ {
					aik := bufA[i*B+k]
					if aik == 0 {
						continue
					}
					for j := 0; j < B; j++ {
						bufC[i*B+j] += aik * bufB[k*B+j]
					}
				}
			}
			job.M.Compute(p, 2*float64(B)*float64(B)*float64(B))
			if err := gaC.Acc([]int{ib * B, jb * B}, []int{ib*B + B - 1, jb*B + B - 1}, bufC, 1.0); err != nil {
				log.Fatal(err)
			}
			tasks++
		}
		env.Sync()

		// Verify C == 2A by sampling, and report.
		if env.Me() == 0 {
			probe := make([]float64, N)
			if err := gaC.Get([]int{N / 2, 0}, []int{N / 2, N - 1}, probe); err != nil {
				log.Fatal(err)
			}
			worst := 0.0
			for j, v := range probe {
				want := 2 * float64(N/2+j)
				if d := math.Abs(v - want); d > worst {
					worst = d
				}
			}
			fmt.Printf("[%s] C = A x B verified (max error %.2g) in %v simulated\n",
				rt.Name(), worst, p.Now()-start)
		}
		env.Sync()
		for _, a := range []*ga.Array{gaA, gaB, gaC, counter} {
			if err := a.Destroy(); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tiles, simulated time %v\n", nb*nb*nb, job.Eng.Stats().FinalTime)
}
