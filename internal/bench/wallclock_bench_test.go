package bench

import (
	"fmt"
	"testing"
)

// BenchmarkWallclockScaleEvents measures the host cost of one scale
// exchange job — the events/sec trajectory of the engine and fabric
// with no MPI or ARMCI above them.
func BenchmarkWallclockScaleEvents(b *testing.B) {
	for _, nranks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", nranks), func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				st, _, err := ParallelScaleRun(nranks, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}
