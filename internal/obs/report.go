package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// statsJSON is the machine-readable stats schema. encoding/json sorts
// map keys, so marshalling is byte-deterministic.
type statsJSON struct {
	Counters   map[string][]int64    `json:"counters"`
	TimesNs    map[string][]sim.Time `json:"times_ns"`
	Gauges     map[string][]int64    `json:"gauges,omitempty"`
	Histograms map[string][]histJSON `json:"histograms,omitempty"`
	LinkBusyNs []sim.Time            `json:"link_busy_ns,omitempty"`
}

// histJSON serializes one rank's histogram; buckets list only nonzero
// entries as [bucket, count], where bucket b covers [2^(b-1), 2^b) ns.
type histJSON struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	Buckets [][2]int64 `json:"buckets"`
}

// WriteStatsJSON writes the registry as deterministic JSON.
func (r *Recorder) WriteStatsJSON(w io.Writer) error {
	m := r.Metrics()
	if m == nil {
		m = NewMetrics()
	}
	s := statsJSON{Counters: m.counters, TimesNs: m.times, Gauges: m.gauges, LinkBusyNs: m.links}
	if len(m.hists) > 0 {
		s.Histograms = map[string][]histJSON{}
	}
	for name, hs := range m.hists {
		out := make([]histJSON, len(hs))
		for i, h := range hs {
			out[i] = histJSON{Count: h.Count, SumNs: h.SumNs, Buckets: h.Sparse()}
			if out[i].Buckets == nil {
				out[i].Buckets = [][2]int64{} // an empty rank prints "[]", not "null"
			}
		}
		s.Histograms[name] = out
	}
	return profile.WriteJSON(w, &s)
}

// nranks returns the widest per-rank vector in the registry.
func (m *Metrics) nranks() int {
	n := 0
	if m == nil {
		return 0
	}
	for _, v := range m.counters {
		n = max(n, len(v))
	}
	for _, v := range m.times {
		n = max(n, len(v))
	}
	for _, v := range m.gauges {
		n = max(n, len(v))
	}
	return n
}

// at is s[i], or zero past the end of a rank that never recorded.
func at[T any](s []T, i int) (v T) {
	if i < len(s) {
		v = s[i]
	}
	return v
}

// WriteStats writes a human-readable report: a per-rank summary table
// of the headline metrics (lock wait, bytes contiguous vs packed,
// epoch flushes), then every counter, time, and gauge in sorted order,
// and per-node link busy time.
func (r *Recorder) WriteStats(w io.Writer) {
	m := r.Metrics()
	n := m.nranks()
	fmt.Fprintf(w, "# obs stats — per-rank summary\n")
	if n == 0 {
		fmt.Fprintf(w, "# (no metrics recorded)\n")
		return
	}
	fmt.Fprintf(w, "%-5s %14s %14s %14s %14s %12s %10s %10s %10s %10s\n",
		"rank", "lockwait.sh(us)", "lockwait.ex(us)", "bytes.contig", "bytes.packed",
		"epoch.flush", "epochs", "puts", "gets", "accs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-5d %14.3f %14.3f %14d %14d %12d %10d %10d %10d %10d\n",
			i,
			at(m.times[TLockWaitShared], i).Micros(),
			at(m.times[TLockWaitExcl], i).Micros(),
			at(m.counters[CBytesContig], i),
			at(m.counters[CBytesPacked], i),
			at(m.counters[CEpochFlush], i),
			at(m.counters[CEpochs], i),
			at(m.counters[COpsPut], i),
			at(m.counters[COpsGet], i),
			at(m.counters[COpsAcc], i))
	}

	fmt.Fprintf(w, "\n# counters (per-rank, then total)\n")
	for _, name := range sortedKeys(m.counters) {
		vals := m.counters[name]
		fmt.Fprintf(w, "%-24s total=%-12d", name, Total(vals))
		writeI64Row(w, vals)
	}
	fmt.Fprintf(w, "\n# virtual-time metrics (us per rank, then total)\n")
	for _, name := range sortedKeys(m.times) {
		vals := m.times[name]
		fmt.Fprintf(w, "%-24s total=%-12.3f", name, TotalTime(vals).Micros())
		for _, v := range vals {
			fmt.Fprintf(w, " %.3f", v.Micros())
		}
		fmt.Fprintln(w)
	}
	if len(m.gauges) > 0 {
		fmt.Fprintf(w, "\n# high-water gauges (per-rank)\n")
		for _, name := range sortedKeys(m.gauges) {
			fmt.Fprintf(w, "%-24s", name)
			writeI64Row(w, m.gauges[name])
		}
	}
	if len(m.hists) > 0 {
		fmt.Fprintf(w, "\n# latency histograms (aggregated across ranks; bucket b: [2^(b-1), 2^b) ns)\n")
		for _, name := range sortedKeys(m.hists) {
			var agg Hist
			for _, h := range m.hists[name] {
				agg.Add(h)
			}
			mean := 0.0
			if agg.Count > 0 {
				mean = float64(agg.SumNs) / float64(agg.Count) / 1e3
			}
			fmt.Fprintf(w, "%-24s count=%-8d mean=%.3fus buckets:", name, agg.Count, mean)
			for b, c := range agg.Buckets {
				if c != 0 {
					fmt.Fprintf(w, " %d:%d", b, c)
				}
			}
			fmt.Fprintln(w)
		}
	}
	if len(m.links) > 0 {
		fmt.Fprintf(w, "\n# NIC link busy time (us per node)\n")
		for i, v := range m.links {
			fmt.Fprintf(w, "node %-4d %.3f\n", i, v.Micros())
		}
	}
}

func writeI64Row(w io.Writer, vals []int64) {
	for _, v := range vals {
		fmt.Fprintf(w, " %d", v)
	}
	fmt.Fprintln(w)
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
