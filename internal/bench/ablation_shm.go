package bench

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
)

// ShmAblationConfig tunes the intra-node shared-memory ablation sweep.
type ShmAblationConfig struct {
	MinExp, MaxExp int // contiguous transfer sizes 2^MinExp .. 2^MaxExp
	Iters          int
	SegBytes       int // strided segment size
	MaxSegs        int // strided segment counts 1..MaxSegs (powers of two)

	// Obs, when non-nil, records per-rank metrics and trace spans for
	// every job in the sweep.
	Obs *obs.Recorder
}

// DefaultShmAblation covers small messages through the bandwidth
// regime where the memcpy-rate gap dominates.
func DefaultShmAblation() ShmAblationConfig {
	return ShmAblationConfig{MinExp: 3, MaxExp: 22, Iters: 3, SegBytes: 1024, MaxSegs: 256}
}

// QuickShmAblation is a reduced sweep for tests.
func QuickShmAblation() ShmAblationConfig {
	return ShmAblationConfig{MinExp: 3, MaxExp: 16, Iters: 2, SegBytes: 256, MaxSegs: 16}
}

// shmProbes lists the ablation's curves: contiguous put, contiguous get
// and strided put (segment counts 1..MaxSegs), each for a target on the
// origin's node (rank 1) and one node away, with the shm fast path on
// and forced off (plain MPI_Win_create windows).
func shmProbes(plat *platform.Platform, cfg ShmAblationConfig) []probe {
	shm := benchOptions()
	rma := shm
	rma.NoShm = true
	sizes := pow2s(cfg.MinExp, cfg.MaxExp)
	var table []probe
	for _, kind := range []string{"put", "get", "puts"} {
		base := probe{plat: plat, op: OpPut, xs: sizes, iters: cfg.Iters, rec: cfg.Obs}
		switch kind {
		case "get":
			base.op = OpGet
		case "puts":
			base.xs, base.seg = segCounts(cfg.MaxSegs), cfg.SegBytes
		}
		for _, place := range []string{"intra", "inter"} {
			base.target = plat.CoresPerNode
			if place == "intra" {
				base.target = 1
			}
			table = append(table,
				base.as(fmt.Sprintf("%s %s (shm)", place, kind), harness.ImplARMCIMPI, shm),
				base.as(fmt.Sprintf("%s %s (rma)", place, kind), harness.ImplARMCIMPI, rma))
		}
	}
	return table
}

// AblationShm regenerates the intra-node shared-memory ablation on one
// platform: contiguous put/get and strided put bandwidth for intra- and
// inter-node targets, with the shm fast path on and off. Inter-node
// pairs must coincide (the shm flavor changes nothing off-node); the
// intra-node gap is the win the fast path buys.
func AblationShm(plat *platform.Platform, cfg ShmAblationConfig) (*Figure, error) {
	fig := &Figure{
		Name:   "ablation-shm",
		Title:  fmt.Sprintf("Intra-node shared-memory ablation, %s", plat.System),
		XLabel: "transfer size (bytes) / segment count",
		YLabel: "bandwidth (GB/s)",
	}
	if err := runTable(fig, shmProbes(plat, cfg), nil); err != nil {
		return nil, err
	}
	return fig, nil
}
