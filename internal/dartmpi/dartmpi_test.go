package dartmpi

import (
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TestStagedDecision is the leader-staging decision table: on two
// 4-core nodes (ranks 0-3 and 4-7, leaders 0 and 4), only a non-leader
// origin's wire transfer to another node, at or above the threshold,
// is staged.
func TestStagedDecision(t *testing.T) {
	const nranks = 8
	cases := []struct {
		name           string
		origin, target int
		n              int
		opt            func(*armcimpi.Options)
		want           bool
	}{
		{"non-leader remote at threshold", 1, 5, DefaultStageThreshold, nil, true},
		{"non-leader remote below threshold", 1, 5, DefaultStageThreshold - 1, nil, false},
		{"non-leader on node 1 to node 0", 6, 1, 1 << 20, nil, true},
		{"leader remote", 0, 5, 1 << 20, nil, false},
		{"node-1 leader remote", 4, 1, 1 << 20, nil, false},
		{"same-node target", 1, 2, 1 << 20, nil, false},
		{"self target", 1, 1, 1 << 20, nil, false},
		{"target past the last rank", 1, nranks, 1 << 20, nil, false},
		{"negative target", 1, -1, 1 << 20, nil, false},
		{"custom threshold met", 1, 5, 1024, func(o *armcimpi.Options) { o.StageThreshold = 1024 }, true},
		{"custom threshold missed", 1, 5, 1023, func(o *armcimpi.Options) { o.StageThreshold = 1024 }, false},
		{"NoShm", 1, 5, 1 << 20, func(o *armcimpi.Options) { o.NoShm = true }, false},
		{"NoLeaderStaging", 1, 5, 1 << 20, func(o *armcimpi.Options) { o.NoLeaderStaging = true }, false},
	}
	par := fabric.Params{
		Name: "dart-test", Nodes: 2, CoresPerNode: 4,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
		LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9, PageSize: 4096,
		BounceRate: 1e9, UnpinnedRate: 0.5e9, AccumRate: 1e9, ShmCopyRate: 8e9,
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		m, err := fabric.NewMachine(eng, par, nranks)
		if err != nil {
			t.Fatal(err)
		}
		mw := mpi.NewWorld(m, &platform.Tuning{BandwidthFrac: 1})
		aw := armcimpi.NewWorld(mw)
		opt := armcimpi.DefaultOptions()
		if c.opt != nil {
			c.opt(&opt)
		}
		err = eng.Run(nranks, func(p *sim.Proc) {
			if p.ID() != c.origin {
				return
			}
			rt := New(aw, mw.Rank(p), opt)
			if got := (dartPolicy{rt.Runtime}).staged(c.target, c.n); got != c.want {
				t.Errorf("%s: staged(%d -> %d, %d B) = %v, want %v", c.name, c.origin, c.target, c.n, got, c.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
