package critpath

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"repro/internal/obs/profile"
)

// Report is the -critpath document: virtual-time attribution only (no
// hop references, no host times), with every table in a fixed sort
// order, so repeated runs produce byte-identical JSON. TotalNs is the
// sum of the job makespans; every other table splits it.
type Report struct {
	Schema  string        `json:"schema"`
	TotalNs int64         `json:"total_ns"`
	Jobs    []Job         `json:"jobs"`   // in analysis order
	Phases  []PhaseShare  `json:"phases"` // extended phase order, empty phases skipped
	Ops     []OpShare     `json:"ops"`    // op order, "-" (no operation) last
	Nics    []NicShare    `json:"nics"`   // by NIC node, -1 (no NIC) first
	Ranks   []RankShare   `json:"ranks"`  // by rank id
	Chains  []ChainReport `json:"chains"` // by wait time, then reason, then releasing rank
}

// PhaseShare is one extended phase's critical time, beside the flat
// profiler's attribution of the same phase.
type PhaseShare struct {
	Phase  string `json:"phase"`
	CritNs int64  `json:"crit_ns"`
	FlatNs int64  `json:"flat_ns"`
}

// OpShare is one operation's critical time.
type OpShare struct {
	Op     string `json:"op"`
	CritNs int64  `json:"crit_ns"`
}

// NicShare is one NIC's critical time; Nic -1 is time spent off any
// NIC.
type NicShare struct {
	Nic    int   `json:"nic"`
	CritNs int64 `json:"crit_ns"`
}

// RankShare is one rank's critical time.
type RankShare struct {
	Rank   int   `json:"rank"`
	CritNs int64 `json:"crit_ns"`
}

// ChainReport is the critical wait of one park reason released by one
// rank (From -1: a rank-local wait).
type ChainReport struct {
	Why    string `json:"why"`
	From   int    `json:"from"`
	Count  int64  `json:"count"`
	WaitNs int64  `json:"wait_ns"`
}

// Report builds the document of every job analyzed so far, flushing
// the current job first; nil on a nil recorder.
func (r *Rec) Report() *Report {
	if r == nil {
		return nil
	}
	r.Flush()
	doc := &Report{
		Schema: "armci-crit/1",
		Jobs:   append([]Job{}, r.agg.jobs...),
		Phases: []PhaseShare{},
		Ops:    []OpShare{},
		Nics:   []NicShare{},
		Ranks:  []RankShare{},
		Chains: []ChainReport{},
	}
	for _, j := range r.agg.jobs {
		doc.TotalNs += int64(j.Makespan)
	}
	var byPhase, flat [numPhases]int64
	var byOp [opNone + 1]int64
	byNic, byRank := map[int32]int64{}, map[int32]int64{}
	for k, ns := range r.agg.cells {
		if int(k.ph) < numPhases {
			byPhase[k.ph] += int64(ns)
		}
		byOp[k.op] += int64(ns)
		byNic[k.nic] += int64(ns)
		byRank[k.rank] += int64(ns)
	}
	for op := profile.Op(0); op < profile.NumOps; op++ {
		for ph := profile.Phase(0); ph < profile.NumPhases; ph++ {
			for _, h := range r.flat.PhaseHists(op, ph) {
				flat[ph] += h.SumNs
			}
		}
	}
	for ph := range numPhases {
		if byPhase[ph] != 0 || flat[ph] != 0 {
			doc.Phases = append(doc.Phases, PhaseShare{Phase: PhaseName(uint8(ph)), CritNs: byPhase[ph], FlatNs: flat[ph]})
		}
	}
	for op, ns := range byOp {
		if ns != 0 {
			doc.Ops = append(doc.Ops, OpShare{Op: OpName(uint8(op)), CritNs: ns})
		}
	}
	for _, nic := range slices.Sorted(maps.Keys(byNic)) {
		if ns := byNic[nic]; ns != 0 {
			doc.Nics = append(doc.Nics, NicShare{Nic: int(nic), CritNs: ns})
		}
	}
	for _, rank := range slices.Sorted(maps.Keys(byRank)) {
		if ns := byRank[rank]; ns != 0 {
			doc.Ranks = append(doc.Ranks, RankShare{Rank: int(rank), CritNs: ns})
		}
	}
	for k, v := range r.agg.chains {
		doc.Chains = append(doc.Chains, ChainReport{Why: k.why, From: int(k.from), Count: v.count, WaitNs: int64(v.ns)})
	}
	sort.Slice(doc.Chains, func(i, j int) bool {
		a, b := doc.Chains[i], doc.Chains[j]
		if a.WaitNs != b.WaitNs {
			return a.WaitNs > b.WaitNs
		}
		if a.Why != b.Why {
			return a.Why < b.Why
		}
		return a.From < b.From
	})
	return doc
}

// WriteJSON writes the document of every job analyzed so far (nothing
// on a nil recorder).
func (r *Rec) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	return profile.WriteJSON(w, r.Report())
}

// WriteText writes the mpiP-style critical-path report: per-job
// invariants, per-phase critical share contrasted against the flat
// profiler share, critical time by operation, the top wait chains with
// the releasing rank named, and critical time by NIC and by rank.
func (d *Report) WriteText(w io.Writer) error {
	if d == nil {
		return nil
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "armci-crit: critical-path report (virtual time)\n")
	fmt.Fprintf(&b, "jobs analyzed: %d   total critical time: %d ns (== sum of job makespans)\n\n",
		len(d.Jobs), d.TotalNs)

	fmt.Fprintf(&b, "per-job invariant (path sum == makespan):\n")
	fmt.Fprintf(&b, "  %-44s %14s %14s %6s %6s\n", "job", "makespan_ns", "path_ns", "segs", "start")
	for _, j := range d.Jobs {
		mark := ""
		if j.PathNs != j.Makespan {
			mark = "  VIOLATED"
		}
		fmt.Fprintf(&b, "  %-44s %14d %14d %6d %6d%s\n",
			j.Label, j.Makespan, j.PathNs, j.Segments, j.Start, mark)
	}

	var flatTot int64
	for _, p := range d.Phases {
		flatTot += p.FlatNs
	}
	fmt.Fprintf(&b, "\ncritical time by phase (vs flat profiler attribution):\n")
	fmt.Fprintf(&b, "  %-14s %14s %7s %14s %7s\n", "phase", "crit_ns", "crit%", "flat_ns", "flat%")
	for _, p := range d.Phases {
		fmt.Fprintf(&b, "  %-14s %14d %6.2f%% %14d %6.2f%%\n",
			p.Phase, p.CritNs, profile.Pct(p.CritNs, d.TotalNs), p.FlatNs, profile.Pct(p.FlatNs, flatTot))
	}

	fmt.Fprintf(&b, "\ncritical time by operation:\n")
	fmt.Fprintf(&b, "  %-8s %14s %7s\n", "op", "crit_ns", "crit%")
	for _, o := range d.Ops {
		fmt.Fprintf(&b, "  %-8s %14d %6.2f%%\n", o.Op, o.CritNs, profile.Pct(o.CritNs, d.TotalNs))
	}

	fmt.Fprintf(&b, "\ntop wait chains (critical waits by park reason x releasing rank):\n")
	fmt.Fprintf(&b, "  %-24s %8s %8s %14s %7s\n", "why", "by-rank", "count", "wait_ns", "crit%")
	for i, c := range d.Chains {
		if i >= 20 {
			fmt.Fprintf(&b, "  ... %d more\n", len(d.Chains)-i)
			break
		}
		by := fmt.Sprint(c.From)
		if c.From < 0 {
			by = "local"
		}
		fmt.Fprintf(&b, "  %-24s %8s %8d %14d %6.2f%%\n", c.Why, by, c.Count, c.WaitNs, profile.Pct(c.WaitNs, d.TotalNs))
	}

	fmt.Fprintf(&b, "\ncritical time by NIC:\n")
	fmt.Fprintf(&b, "  %-6s %14s %7s\n", "nic", "crit_ns", "crit%")
	for _, n := range d.Nics {
		name := fmt.Sprint(n.Nic)
		if n.Nic < 0 {
			name = "-"
		}
		fmt.Fprintf(&b, "  %-6s %14d %6.2f%%\n", name, n.CritNs, profile.Pct(n.CritNs, d.TotalNs))
	}

	fmt.Fprintf(&b, "\ncritical time by rank (top 10):\n")
	fmt.Fprintf(&b, "  %-6s %14s %7s\n", "rank", "crit_ns", "crit%")
	ranks := slices.Clone(d.Ranks)
	sort.SliceStable(ranks, func(i, j int) bool { return ranks[i].CritNs > ranks[j].CritNs })
	for i, rk := range ranks {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more\n", len(ranks)-i)
			break
		}
		fmt.Fprintf(&b, "  %-6d %14d %6.2f%%\n", rk.Rank, rk.CritNs, profile.Pct(rk.CritNs, d.TotalNs))
	}
	_, err := w.Write(b.Bytes())
	return err
}
