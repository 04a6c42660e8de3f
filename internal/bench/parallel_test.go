package bench

import (
	"testing"

	"repro/internal/sim"
)

// checkExchange runs the scale exchange as k = 1, 2, 4 and 8 concurrent
// jobs and requires k times the recorded per-job events and parks at
// the recorded final time: the jobs share nothing that moves a virtual
// timestamp, whatever the worker count.
func checkExchange(t *testing.T, nranks, rounds int, want sim.Stats) {
	t.Helper()
	for _, k := range []int{1, 2, 4, 8} {
		st, _, err := ParallelScaleRun(nranks, rounds, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		w := sim.Stats{Events: int64(k) * want.Events, Parks: int64(k) * want.Parks, FinalTime: want.FinalTime}
		if st != w {
			t.Errorf("k=%d: stats %+v, want %+v", k, st, w)
		}
	}
}

// TestParallelEquivalence pins the exchange at 256 ranks x 2 rounds on
// the fabric's one cost model (Deliver): one event and one park per
// message, the final time set by both NICs held for each transfer.
func TestParallelEquivalence(t *testing.T) {
	checkExchange(t, 256, 2, sim.Stats{Events: 1024, Parks: 1024, FinalTime: 119531})
}

// TestParallelScaleRunDeterminism pins the exchange at 504 ranks (42
// nodes, not a power of two) x 3 rounds.
func TestParallelScaleRunDeterminism(t *testing.T) {
	checkExchange(t, 504, 3, sim.Stats{Events: 3024, Parks: 3024, FinalTime: 62964})
}
