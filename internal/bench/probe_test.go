package bench

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// TestProbeRoutes holds every ARMCI-MPI and dartmpi probe of the quick
// ablation-shm and ablation-locality tables, plus one ARMCI-MPI probe of
// Figure 3 and one of Figure 4, to the route tier its placement implies:
// a same-node target with the shm fast path on is reached through the
// node tier and never over the wire; a cross-node target, or any target
// under NoShm, never through the node tier and always over the wire,
// direct or leader-staged. Placement is read from the probe's ranks and
// options, not from its label. Native and armci-ds make no route
// decisions and are skipped.
func TestProbeRoutes(t *testing.T) {
	ib := platform.Get(platform.InfiniBand)
	f4 := QuickFig4()
	table := append(shmProbes(ib, QuickShmAblation()), localityProbes(ib, QuickLocalityAblation())...)
	table = append(table,
		fig3Probes(ib, QuickFig3())[4],                                       // put (MPI)
		fig4Probes(ib, OpPut, 1024, segCounts(f4.MaxSegs), f4.Iters, nil)[1]) // Direct
	ran := 0
	for _, p := range table {
		if p.impl != harness.ImplARMCIMPI && p.impl != harness.ImplDartMPI {
			continue
		}
		ran++
		t.Run(p.label, func(t *testing.T) {
			p.rec = obs.New(obs.Options{})
			if _, err := measure(p); err != nil {
				t.Fatal(err)
			}
			ops := func(c string) int64 { return obs.Total(p.rec.Stats().Counters[c]) }
			node, rma, staged := ops(obs.CRouteNode), ops(obs.CRouteRMA), ops(obs.CRouteStaged)
			cores := p.plat.CoresPerNode
			if p.origin/cores == p.target/cores && !p.opt.NoShm {
				if node == 0 || rma != 0 {
					t.Errorf("same-node shm probe %d -> %d: route.node.ops %d, route.rma.ops %d; want node > 0, rma 0",
						p.origin, p.target, node, rma)
				}
			} else if node != 0 || rma+staged == 0 {
				t.Errorf("wire probe %d -> %d (NoShm %v): route.node.ops %d, route.rma.ops %d, route.staged.ops %d; want node 0, rma+staged > 0",
					p.origin, p.target, p.opt.NoShm, node, rma, staged)
			}
		})
	}
	if ran != 12+16+2 {
		t.Errorf("checked %d probes, want 30 (12 ablation-shm, 16 ablation-locality, 2 figure)", ran)
	}
}
