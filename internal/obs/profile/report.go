package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// aggHist sums a per-rank histogram slice into one histogram.
func aggHist(hs []Hist) Hist {
	var out Hist
	for i := range hs {
		out.Add(&hs[i])
	}
	return out
}

// opAgg is one op's cross-rank aggregate used by both emitters.
type opAgg struct {
	op     Op
	total  Hist
	phases [NumPhases]Hist
}

// aggregate returns per-op aggregates in enum order, skipping ops that
// never completed — the deterministic iteration order both the text
// report and the JSON rely on.
func (p *Profiler) aggregate() []opAgg {
	var out []opAgg
	for op := Op(0); op < NumOps; op++ {
		a := opAgg{op: op, total: aggHist(p.totals[op])}
		if a.total.Count == 0 {
			continue
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			a.phases[ph] = aggHist(p.hists[op][ph])
		}
		out = append(out, a)
	}
	return out
}

// --- text report -----------------------------------------------------

// WriteReport renders the mpiP-style text report: top ops by aggregate
// virtual time, per-op phase breakdown percentages, hottest rank
// pairs, and per-link utilization. Output is byte-deterministic: every
// section iterates sorted data with explicit tie-breaks.
func (p *Profiler) WriteReport(w io.Writer) error {
	if p == nil {
		return nil
	}
	aggs := p.aggregate()
	// Top ops by aggregate time, ties broken by enum order (stable
	// sort over the enum-ordered slice).
	sort.SliceStable(aggs, func(i, j int) bool {
		return aggs[i].total.SumNs > aggs[j].total.SumNs
	})

	var grand int64
	for _, a := range aggs {
		grand += a.total.SumNs
	}

	bw := &Printer{W: w}
	bw.Printf("armci-prof: phase-attribution report (virtual time)\n")
	bw.Printf("---------------------------------------------------\n\n")

	bw.Printf("Top operations by aggregate time\n")
	bw.Printf("  %-8s %12s %16s %14s %8s\n", "op", "calls", "time(ns)", "mean(ns)", "% total")
	for _, a := range aggs {
		mean := int64(0)
		if a.total.Count > 0 {
			mean = a.total.SumNs / a.total.Count
		}
		bw.Printf("  %-8s %12d %16d %14d %7.2f%%\n",
			a.op, a.total.Count, a.total.SumNs, mean, Pct(a.total.SumNs, grand))
	}
	bw.Printf("\n")

	bw.Printf("Phase breakdown per operation (%% of op time)\n")
	bw.Printf("  %-8s", "op")
	for ph := Phase(0); ph < NumPhases; ph++ {
		bw.Printf(" %12s", ph)
	}
	bw.Printf("\n")
	for _, a := range aggs {
		bw.Printf("  %-8s", a.op)
		for ph := Phase(0); ph < NumPhases; ph++ {
			bw.Printf(" %11.2f%%", Pct(a.phases[ph].SumNs, a.total.SumNs))
		}
		bw.Printf("\n")
	}
	bw.Printf("\n")

	cells := p.Cells()
	if len(cells) > 0 {
		// Hottest pairs by sent bytes; ties keep (src,dst,class,route)
		// key order from Cells().
		sort.SliceStable(cells, func(i, j int) bool {
			return cells[i].SentBytes > cells[j].SentBytes
		})
		n := len(cells)
		if n > 20 {
			n = 20
		}
		bw.Printf("Hottest pairs by bytes sent (top %d of %d)\n", n, len(cells))
		bw.Printf("  %4s %4s %-5s %-5s %10s %14s %10s %14s\n",
			"src", "dst", "class", "route", "s.msgs", "s.bytes", "r.msgs", "r.bytes")
		for _, c := range cells[:n] {
			bw.Printf("  %4d %4d %-5s %-5s %10d %14d %10d %14d\n",
				c.Src, c.Dst, c.Class, c.Route, c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes)
		}
		bw.Printf("\n")
	}

	links := p.links
	hasLinks := false
	for i := range links {
		if links[i].Msgs > 0 {
			hasLinks = true
			break
		}
	}
	if hasLinks {
		bw.Printf("Link utilization (per node NIC)\n")
		bw.Printf("  %4s %10s %14s %14s %14s %14s\n",
			"node", "msgs", "bytes", "busy(ns)", "queued(ns)", "maxbacklog")
		for node := range links {
			ls := &links[node]
			if ls.Msgs == 0 {
				continue
			}
			bw.Printf("  %4d %10d %14d %14d %14d %14d\n",
				node, ls.Msgs, ls.Bytes, int64(ls.Busy), int64(ls.Queued), int64(ls.MaxBacklog))
		}
		bw.Printf("\n")
	}
	return bw.Err
}

// Pct is part's share of whole in percent (0 of an empty whole).
func Pct[T ~int64](part, whole T) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Printer folds the error handling of a text report's many prints: the
// first write error sticks and silences the rest. The critical-path
// report prints through it too.
type Printer struct {
	W   io.Writer
	Err error
}

// Printf formats to W unless an earlier print failed.
func (e *Printer) Printf(format string, args ...any) {
	if e.Err != nil {
		return
	}
	_, e.Err = fmt.Fprintf(e.W, format, args...)
}

// --- JSON ------------------------------------------------------------

// The JSON mirrors obs/report.go conventions: fixed struct field
// order, integers only, sparse [bucket, count] histogram pairs, and
// fully sorted iteration so repeat runs are byte-identical.

type profHistJSON struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

func toHistJSON(h Hist) profHistJSON {
	return profHistJSON{Count: h.Count, SumNs: h.SumNs, Buckets: h.Sparse()}
}

type profPhaseJSON struct {
	Phase string       `json:"phase"`
	Hist  profHistJSON `json:"hist"`
}

type profOpJSON struct {
	Op     string          `json:"op"`
	Total  profHistJSON    `json:"total"`
	Phases []profPhaseJSON `json:"phases"`
}

type profCellJSON struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Class     string `json:"class"`
	Route     string `json:"route"`
	SentMsgs  int64  `json:"sent_msgs"`
	SentBytes int64  `json:"sent_bytes"`
	RecvMsgs  int64  `json:"recv_msgs"`
	RecvBytes int64  `json:"recv_bytes"`
}

type profLinkJSON struct {
	Node         int   `json:"node"`
	Msgs         int64 `json:"msgs"`
	Bytes        int64 `json:"bytes"`
	BusyNs       int64 `json:"busy_ns"`
	QueuedNs     int64 `json:"queued_ns"`
	MaxBacklogNs int64 `json:"max_backlog_ns"`
}

type profJSON struct {
	Schema string         `json:"schema"`
	Ops    []profOpJSON   `json:"ops"`
	Matrix []profCellJSON `json:"matrix"`
	Links  []profLinkJSON `json:"links"`
}

// WriteJSON emits the deterministic machine-readable profile: ops in
// enum order (empties skipped), phases in enum order (empties
// skipped), the comm matrix key-sorted, links by node id.
func (p *Profiler) WriteJSON(w io.Writer) error {
	if p == nil {
		return nil
	}
	doc := profJSON{Schema: "armci-prof/1"}
	for _, a := range p.aggregate() {
		oj := profOpJSON{Op: a.op.String(), Total: toHistJSON(a.total)}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if a.phases[ph].Count == 0 {
				continue
			}
			oj.Phases = append(oj.Phases, profPhaseJSON{
				Phase: ph.String(), Hist: toHistJSON(a.phases[ph]),
			})
		}
		doc.Ops = append(doc.Ops, oj)
	}
	for _, c := range p.Cells() {
		doc.Matrix = append(doc.Matrix, profCellJSON{
			Src: c.Src, Dst: c.Dst,
			Class: c.Class.String(), Route: c.Route.String(),
			SentMsgs: c.SentMsgs, SentBytes: c.SentBytes,
			RecvMsgs: c.RecvMsgs, RecvBytes: c.RecvBytes,
		})
	}
	for node := range p.links {
		ls := &p.links[node]
		if ls.Msgs == 0 {
			continue
		}
		doc.Links = append(doc.Links, profLinkJSON{
			Node: node, Msgs: ls.Msgs, Bytes: ls.Bytes,
			BusyNs:       int64(ls.Busy),
			QueuedNs:     int64(ls.Queued),
			MaxBacklogNs: int64(ls.MaxBacklog),
		})
	}
	return WriteJSON(w, &doc)
}

// WriteJSON writes doc the way every report of internal/obs is
// written: indented by two spaces, newline-terminated.
func WriteJSON(w io.Writer, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
