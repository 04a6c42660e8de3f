package bench

import (
	"fmt"
	"testing"
)

// TestParallelScaleRunDeterminism: the exchange produces identical
// engine statistics (events, parks, final virtual time) at every shard
// count — the bench-level restatement of the sim equivalence tests on
// a real fabric cost model.
func TestParallelScaleRunDeterminism(t *testing.T) {
	ref, _, err := ParallelScaleRun(504, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Events == 0 || ref.FinalTime == 0 {
		t.Fatalf("degenerate reference stats %+v", ref)
	}
	for _, k := range []int{2, 4, 8} {
		st, _, err := ParallelScaleRun(504, 3, k)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if st != ref {
			t.Errorf("shards=%d: stats %+v, want %+v", k, st, ref)
		}
	}
}

// BenchmarkParallelShards is the CI race-smoke entry point for the
// sharded engine at the bench level: one quick-sized exchange per
// iteration at each shard count, under whatever GOMAXPROCS the CI
// matrix sets.
func BenchmarkParallelShards(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ParallelScaleRun(256, 2, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
