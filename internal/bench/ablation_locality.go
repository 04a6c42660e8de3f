package bench

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// LocalityAblationConfig tunes the cross-runtime locality ablation.
type LocalityAblationConfig struct {
	MinExp, MaxExp int // contiguous transfer sizes 2^MinExp .. 2^MaxExp
	Iters          int

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultLocalityAblation spans small messages through the bandwidth
// regime, crossing the dartmpi leader-staging threshold (8 KiB)
// mid-sweep so the hierarchical knee is visible.
func DefaultLocalityAblation() LocalityAblationConfig {
	return LocalityAblationConfig{MinExp: 3, MaxExp: 22, Iters: 3}
}

// QuickLocalityAblation is a reduced sweep for tests and CI.
func QuickLocalityAblation() LocalityAblationConfig {
	return LocalityAblationConfig{MinExp: 3, MaxExp: 16, Iters: 2}
}

// localityProbes lists the ablation's curves: contiguous put, then get,
// to a same-node and a cross-node target, under every runtime column.
// The armci-mpi pair isolates the shm fast path; the dartmpi pair
// isolates leader staging on top of full locality tiering. The origin
// is rank 1, a non-leader core, so dartmpi's hierarchical path must
// stage inter-node transfers through its node leader rather than
// short-circuiting at the origin.
func localityProbes(plat *platform.Platform, cfg LocalityAblationConfig) []probe {
	opt := benchOptions()
	noShm, noStage := opt, opt
	noShm.NoShm, noStage.NoLeaderStaging = true, true
	sizes := pow2s(cfg.MinExp, cfg.MaxExp)
	var table []probe
	for _, op := range []ContigOp{OpPut, OpGet} {
		for _, place := range []string{"intra", "inter"} {
			base := probe{plat: plat, origin: 1, target: plat.CoresPerNode, op: op, xs: sizes, iters: cfg.Iters, rec: cfg.Obs}
			if place == "intra" {
				base.target = 0
			}
			label := func(key string) string { return fmt.Sprintf("%s %s (%s)", place, op, key) }
			table = append(table,
				base.as(label("native"), harness.ImplNative, opt),
				base.as(label("armci-ds"), harness.ImplDataServer, opt),
				base.as(label("armci-mpi shm"), harness.ImplARMCIMPI, opt),
				base.as(label("armci-mpi rma"), harness.ImplARMCIMPI, noShm),
				base.as(label("dartmpi"), harness.ImplDartMPI, opt),
				base.as(label("dartmpi nostage"), harness.ImplDartMPI, noStage))
		}
	}
	return table
}

// AblationLocality regenerates the locality-routing ablation on one
// platform: contiguous put/get bandwidth for a same-node and a
// cross-node target under all four runtimes, plus the armci-mpi NoShm
// and dartmpi NoLeaderStaging toggles. Same-node dartmpi must beat the
// pure-RMA armci-mpi flavor (the shared GMR window turns those
// transfers into shared-segment copies); cross-node, the dartmpi pair brackets
// what leader staging costs or saves a non-leader origin.
func AblationLocality(plat *platform.Platform, cfg LocalityAblationConfig) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-locality",
		Title:  fmt.Sprintf("Locality-aware runtime ablation, %s", plat.System),
		XLabel: "transfer size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	if err := runTable(fig, localityProbes(plat, cfg), nil); err != nil {
		return nil, err
	}
	return fig, nil
}
