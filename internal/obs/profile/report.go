package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Report is the -profile document. It follows obs's stats conventions:
// fixed struct field order, integers only, sparse [bucket, count]
// histogram pairs, and fully sorted iteration so repeat runs are
// byte-identical. Ops are in enum order (ops that never completed
// skipped), each op's phases in enum order (empty phases skipped), the
// matrix sorted by (src, dst, class, route), links by node id (idle
// links skipped).
type Report struct {
	Schema string       `json:"schema"`
	Ops    []OpReport   `json:"ops"`
	Matrix []Cell       `json:"matrix"`
	Links  []LinkReport `json:"links"`
}

// HistReport is one histogram summed across ranks.
type HistReport struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// PhaseReport is one phase's share of an op.
type PhaseReport struct {
	Phase string     `json:"phase"`
	Hist  HistReport `json:"hist"`
}

// OpReport is one op's whole-operation histogram and its phases.
type OpReport struct {
	Op     string        `json:"op"`
	Total  HistReport    `json:"total"`
	Phases []PhaseReport `json:"phases"`
}

// MarshalJSON spells a matrix cell's class by name.
func (c MsgClass) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// MarshalJSON spells a matrix cell's route by name.
func (r Route) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// LinkReport is one busy node's NIC utilization record.
type LinkReport struct {
	Node         int   `json:"node"`
	Msgs         int64 `json:"msgs"`
	Bytes        int64 `json:"bytes"`
	BusyNs       int64 `json:"busy_ns"`
	QueuedNs     int64 `json:"queued_ns"`
	MaxBacklogNs int64 `json:"max_backlog_ns"`
}

// sumHist sums a per-rank histogram slice into one report histogram.
func sumHist(hs []Hist) HistReport {
	var out Hist
	for i := range hs {
		out.Add(&hs[i])
	}
	return HistReport{Count: out.Count, SumNs: out.SumNs, Buckets: out.Sparse()}
}

// Report builds the profiler's document; nil on a nil profiler.
func (p *Profiler) Report() *Report {
	if p == nil {
		return nil
	}
	doc := &Report{Schema: "armci-prof/1"}
	for op := Op(0); op < NumOps; op++ {
		o := OpReport{Op: op.String(), Total: sumHist(p.totals[op])}
		if o.Total.Count == 0 {
			continue
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if h := sumHist(p.hists[op][ph]); h.Count != 0 {
				o.Phases = append(o.Phases, PhaseReport{Phase: ph.String(), Hist: h})
			}
		}
		doc.Ops = append(doc.Ops, o)
	}
	if len(p.matrix) > 0 { // an empty matrix prints null, as the schema always has
		doc.Matrix = p.Cells()
	}
	for node, ls := range p.links {
		if ls.Msgs == 0 {
			continue
		}
		doc.Links = append(doc.Links, LinkReport{
			Node: node, Msgs: ls.Msgs, Bytes: ls.Bytes,
			BusyNs:       int64(ls.Busy),
			QueuedNs:     int64(ls.Queued),
			MaxBacklogNs: int64(ls.MaxBacklog),
		})
	}
	return doc
}

// WriteJSON writes the profiler's document (nothing on a nil profiler).
func (p *Profiler) WriteJSON(w io.Writer) error {
	if p == nil {
		return nil
	}
	return WriteJSON(w, p.Report())
}

// WriteText renders the mpiP-style text report: top ops by aggregate
// virtual time, per-op phase breakdown percentages, hottest rank
// pairs, and per-link utilization. Output is byte-deterministic: every
// section iterates sorted data with explicit tie-breaks.
func (d *Report) WriteText(w io.Writer) error {
	if d == nil {
		return nil
	}
	// Top ops by aggregate time, ties broken by enum order (stable
	// sort over the enum-ordered slice).
	ops := slices.Clone(d.Ops)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Total.SumNs > ops[j].Total.SumNs })
	var grand int64
	for _, o := range ops {
		grand += o.Total.SumNs
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "armci-prof: phase-attribution report (virtual time)\n")
	fmt.Fprintf(&b, "---------------------------------------------------\n\n")

	fmt.Fprintf(&b, "Top operations by aggregate time\n")
	fmt.Fprintf(&b, "  %-8s %12s %16s %14s %8s\n", "op", "calls", "time(ns)", "mean(ns)", "% total")
	for _, o := range ops {
		fmt.Fprintf(&b, "  %-8s %12d %16d %14d %7.2f%%\n",
			o.Op, o.Total.Count, o.Total.SumNs, o.Total.SumNs/o.Total.Count, Pct(o.Total.SumNs, grand))
	}

	fmt.Fprintf(&b, "\nPhase breakdown per operation (%% of op time)\n")
	fmt.Fprintf(&b, "  %-8s", "op")
	for ph := Phase(0); ph < NumPhases; ph++ {
		fmt.Fprintf(&b, " %12s", ph)
	}
	fmt.Fprintf(&b, "\n")
	for _, o := range ops {
		fmt.Fprintf(&b, "  %-8s", o.Op)
		for ph := Phase(0); ph < NumPhases; ph++ {
			var ns int64
			for _, p := range o.Phases {
				if p.Phase == ph.String() {
					ns = p.Hist.SumNs
				}
			}
			fmt.Fprintf(&b, " %11.2f%%", Pct(ns, o.Total.SumNs))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "\n")

	if len(d.Matrix) > 0 {
		// Hottest pairs by sent bytes; ties keep the matrix's key order.
		cells := slices.Clone(d.Matrix)
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].SentBytes > cells[j].SentBytes })
		n := min(len(cells), 20)
		fmt.Fprintf(&b, "Hottest pairs by bytes sent (top %d of %d)\n", n, len(cells))
		fmt.Fprintf(&b, "  %4s %4s %-5s %-5s %10s %14s %10s %14s\n",
			"src", "dst", "class", "route", "s.msgs", "s.bytes", "r.msgs", "r.bytes")
		for _, c := range cells[:n] {
			fmt.Fprintf(&b, "  %4d %4d %-5s %-5s %10d %14d %10d %14d\n",
				c.Src, c.Dst, c.Class, c.Route, c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes)
		}
		fmt.Fprintf(&b, "\n")
	}

	if len(d.Links) > 0 {
		fmt.Fprintf(&b, "Link utilization (per node NIC)\n")
		fmt.Fprintf(&b, "  %4s %10s %14s %14s %14s %14s\n",
			"node", "msgs", "bytes", "busy(ns)", "queued(ns)", "maxbacklog")
		for _, l := range d.Links {
			fmt.Fprintf(&b, "  %4d %10d %14d %14d %14d %14d\n",
				l.Node, l.Msgs, l.Bytes, l.BusyNs, l.QueuedNs, l.MaxBacklogNs)
		}
		fmt.Fprintf(&b, "\n")
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Pct is part's share of whole in percent (0 of an empty whole).
func Pct[T ~int64](part, whole T) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
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
