package obs

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Stats is the -stats document: the registry's per-rank vectors by
// metric name. encoding/json sorts map keys, so marshalling is
// byte-deterministic. The vectors are the registry's own; read them,
// do not modify them.
type Stats struct {
	Counters   map[string][]int64     `json:"counters"`
	TimesNs    map[string][]sim.Time  `json:"times_ns"`
	Gauges     map[string][]int64     `json:"gauges,omitempty"`
	Histograms map[string][]StatsHist `json:"histograms,omitempty"`
	LinkBusyNs []sim.Time             `json:"link_busy_ns,omitempty"`
}

// StatsHist is one rank's histogram; buckets list only nonzero entries
// as [bucket, count], where bucket b covers [2^(b-1), 2^b) ns.
type StatsHist struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	Buckets [][2]int64 `json:"buckets"`
}

// Stats builds the registry's document (an empty one on a nil
// recorder).
func (r *Recorder) Stats() *Stats {
	m := NewMetrics()
	if r != nil {
		m = r.m
	}
	s := &Stats{Counters: m.counters, TimesNs: m.times, Gauges: m.gauges, LinkBusyNs: m.links}
	if len(m.hists) > 0 {
		s.Histograms = map[string][]StatsHist{}
	}
	for name, hs := range m.hists {
		out := make([]StatsHist, len(hs))
		for i, h := range hs {
			out[i] = StatsHist{Count: h.Count, SumNs: h.SumNs, Buckets: h.Sparse()}
			if out[i].Buckets == nil {
				out[i].Buckets = [][2]int64{} // an empty rank prints "[]", not "null"
			}
		}
		s.Histograms[name] = out
	}
	return s
}

// WriteStatsJSON writes the registry's document as deterministic JSON.
func (r *Recorder) WriteStatsJSON(w io.Writer) error {
	return profile.WriteJSON(w, r.Stats())
}

// at is s[i], or zero past the end of a rank that never recorded.
func at[T any](s []T, i int) (v T) {
	if i < len(s) {
		v = s[i]
	}
	return v
}

// WriteText writes the human-readable report: a per-rank summary table
// of the headline metrics (lock wait, bytes contiguous vs packed,
// epoch flushes), then every counter, time, and gauge in sorted order,
// the latency histograms summed across ranks, and per-node link busy
// time.
func (s *Stats) WriteText(w io.Writer) error {
	var b bytes.Buffer
	n := 0
	for _, v := range s.Counters {
		n = max(n, len(v))
	}
	for _, v := range s.TimesNs {
		n = max(n, len(v))
	}
	for _, v := range s.Gauges {
		n = max(n, len(v))
	}
	fmt.Fprintf(&b, "# obs stats — per-rank summary\n")
	if n == 0 {
		fmt.Fprintf(&b, "# (no metrics recorded)\n")
		_, err := w.Write(b.Bytes())
		return err
	}
	fmt.Fprintf(&b, "%-5s %14s %14s %14s %14s %12s %10s %10s %10s %10s\n",
		"rank", "lockwait.sh(us)", "lockwait.ex(us)", "bytes.contig", "bytes.packed",
		"epoch.flush", "epochs", "puts", "gets", "accs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-5d %14.3f %14.3f %14d %14d %12d %10d %10d %10d %10d\n",
			i,
			at(s.TimesNs[TLockWaitShared], i).Micros(),
			at(s.TimesNs[TLockWaitExcl], i).Micros(),
			at(s.Counters[CBytesContig], i),
			at(s.Counters[CBytesPacked], i),
			at(s.Counters[CEpochFlush], i),
			at(s.Counters[CEpochs], i),
			at(s.Counters[COpsPut], i),
			at(s.Counters[COpsGet], i),
			at(s.Counters[COpsAcc], i))
	}

	fmt.Fprintf(&b, "\n# counters (per-rank, then total)\n")
	for _, name := range sortedKeys(s.Counters) {
		vals := s.Counters[name]
		fmt.Fprintf(&b, "%-24s total=%-12d", name, Total(vals))
		writeI64Row(&b, vals)
	}
	fmt.Fprintf(&b, "\n# virtual-time metrics (us per rank, then total)\n")
	for _, name := range sortedKeys(s.TimesNs) {
		vals := s.TimesNs[name]
		fmt.Fprintf(&b, "%-24s total=%-12.3f", name, TotalTime(vals).Micros())
		for _, v := range vals {
			fmt.Fprintf(&b, " %.3f", v.Micros())
		}
		fmt.Fprintln(&b)
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(&b, "\n# high-water gauges (per-rank)\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "%-24s", name)
			writeI64Row(&b, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(&b, "\n# latency histograms (aggregated across ranks; bucket b: [2^(b-1), 2^b) ns)\n")
		for _, name := range sortedKeys(s.Histograms) {
			var agg Hist
			for _, h := range s.Histograms[name] {
				agg.Count += h.Count
				agg.SumNs += h.SumNs
				for _, bc := range h.Buckets {
					agg.Buckets[bc[0]] += bc[1]
				}
			}
			mean := 0.0
			if agg.Count > 0 {
				mean = float64(agg.SumNs) / float64(agg.Count) / 1e3
			}
			fmt.Fprintf(&b, "%-24s count=%-8d mean=%.3fus buckets:", name, agg.Count, mean)
			for _, bc := range agg.Sparse() {
				fmt.Fprintf(&b, " %d:%d", bc[0], bc[1])
			}
			fmt.Fprintln(&b)
		}
	}
	if len(s.LinkBusyNs) > 0 {
		fmt.Fprintf(&b, "\n# NIC link busy time (us per node)\n")
		for i, v := range s.LinkBusyNs {
			fmt.Fprintf(&b, "node %-4d %.3f\n", i, v.Micros())
		}
	}
	_, err := w.Write(b.Bytes())
	return err
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
