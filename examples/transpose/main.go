// Transpose: an out-of-place distributed matrix transpose, B = A^T,
// implemented with strided one-sided puts — the noncontiguous access
// pattern of SectionVI that Figure 4 benchmarks. Each process reads its
// local block of A through direct local access and writes the
// transposed patch into B with one strided ARMCI operation per target,
// comparing the configured strided methods.
//
//	go run ./examples/transpose [-impl native|armci-mpi] [-method direct|batched|conservative]
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
	method := flag.String("method", "direct", "strided method for armci-mpi: direct, iov-direct, batched, conservative")
	np := flag.Int("np", 8, "number of simulated processes")
	n := flag.Int("n", 128, "matrix dimension")
	platName := flag.String("platform", platform.BlueGeneP, "simulated platform")
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
	switch *method {
	case "direct":
		opt.StridedMethod = armcimpi.MethodDirect
	case "iov-direct":
		opt.StridedMethod = armcimpi.MethodIOVDirect
	case "batched":
		opt.StridedMethod = armcimpi.MethodBatched
	case "conservative":
		opt.StridedMethod = armcimpi.MethodConservative
	default:
		log.Fatalf("unknown -method %q", *method)
	}
	job, err := harness.NewJob(plat, *np, impl, opt)
	if err != nil {
		log.Fatal(err)
	}
	N := *n
	err = job.Eng.Run(*np, func(p *sim.Proc) {
		rt := job.Runtime(p)
		env := ga.NewEnv(rt, job.MpiWorld.Rank(p))
		a, err := env.Create("A", ga.F64, []int{N, N})
		if err != nil {
			log.Fatal(err)
		}
		b, err := env.Create("B", ga.F64, []int{N, N})
		if err != nil {
			log.Fatal(err)
		}
		// Fill A[i][j] = i*N + j via direct local access.
		if blk, err := a.Access(); err == nil {
			d := blk.Dims()
			for i := 0; i < d[0]; i++ {
				for j := 0; j < d[1]; j++ {
					blk.SetF64(float64((blk.Lo[0]+i)*N+blk.Lo[1]+j), i, j)
				}
			}
			if err := blk.Release(); err != nil {
				log.Fatal(err)
			}
		}
		env.Sync()

		// Transpose: each rank reads its A block and writes the
		// transposed patch into B (a strided put per destination owner).
		start := p.Now()
		lo, hi, ok := a.Distribution(env.Me())
		if ok {
			rows, cols := hi[0]-lo[0]+1, hi[1]-lo[1]+1
			vals := make([]float64, rows*cols)
			if err := a.Get(lo, hi, vals); err != nil {
				log.Fatal(err)
			}
			tr := make([]float64, cols*rows)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					tr[j*rows+i] = vals[i*cols+j]
				}
			}
			if err := b.Put([]int{lo[1], lo[0]}, []int{hi[1], hi[0]}, tr); err != nil {
				log.Fatal(err)
			}
		}
		env.Sync()
		elapsed := p.Now() - start

		// Verify B[j][i] == A[i][j] by sampling a row of B.
		if env.Me() == 0 {
			probe := make([]float64, N)
			if err := b.Get([]int{3, 0}, []int{3, N - 1}, probe); err != nil {
				log.Fatal(err)
			}
			okAll := true
			for i, v := range probe {
				if v != float64(i*N+3) {
					okAll = false
					break
				}
			}
			fmt.Printf("[%s/%s] transpose %dx%d verified=%v, %v simulated\n",
				rt.Name(), *method, N, N, okAll, elapsed)
		}
		env.Sync()
		if err := a.Destroy(); err != nil {
			log.Fatal(err)
		}
		if err := b.Destroy(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
