package critpath

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// tables derives the report's sorted views from the aggregate.
type tables struct {
	total    sim.Time
	byPhase  [numPhases]sim.Time
	flat     [profile.NumPhases]sim.Time
	flatTot  sim.Time
	byOp     map[uint8]sim.Time
	byNic    map[int32]sim.Time
	byRank   map[int32]sim.Time
	chainKys []chainKey
}

func (r *Rec) tables() *tables {
	t := &tables{
		byOp:   map[uint8]sim.Time{},
		byNic:  map[int32]sim.Time{},
		byRank: map[int32]sim.Time{},
	}
	for _, j := range r.agg.jobs {
		t.total += j.Makespan
	}
	for k, ns := range r.agg.cells {
		if int(k.ph) < numPhases {
			t.byPhase[k.ph] += ns
		}
		t.byOp[k.op] += ns
		t.byNic[k.nic] += ns
		t.byRank[k.rank] += ns
	}
	for op := profile.Op(0); op < profile.NumOps; op++ {
		for ph := profile.Phase(0); ph < profile.NumPhases; ph++ {
			for _, h := range r.flat.PhaseHists(op, ph) {
				t.flat[ph] += sim.Time(h.SumNs)
			}
		}
	}
	for _, f := range t.flat {
		t.flatTot += f
	}
	t.chainKys = make([]chainKey, 0, len(r.agg.chains))
	for k := range r.agg.chains {
		t.chainKys = append(t.chainKys, k)
	}
	sort.Slice(t.chainKys, func(i, j int) bool {
		a, b := t.chainKys[i], t.chainKys[j]
		av, bv := r.agg.chains[a].ns, r.agg.chains[b].ns
		if av != bv {
			return av > bv
		}
		if a.why != b.why {
			return a.why < b.why
		}
		return a.from < b.from
	})
	return t
}

func sortedI32(m map[int32]sim.Time) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		if m[k] != 0 {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

// WriteReport writes the mpiP-style critical-path report: per-job
// invariants, per-phase critical share contrasted against the flat
// profiler share, critical time by operation, the top wait chains with
// the releasing rank named, and critical time by NIC and by rank. The
// current job is flushed first.
func (r *Rec) WriteReport(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.Flush()
	t := r.tables()
	e := &profile.Printer{W: w}

	e.Printf("armci-crit: critical-path report (virtual time)\n")
	e.Printf("jobs analyzed: %d   total critical time: %d ns (== sum of job makespans)\n\n",
		len(r.agg.jobs), t.total)

	e.Printf("per-job invariant (path sum == makespan):\n")
	e.Printf("  %-44s %14s %14s %6s %6s\n", "job", "makespan_ns", "path_ns", "segs", "start")
	for _, j := range r.agg.jobs {
		mark := ""
		if j.PathNs != j.Makespan {
			mark = "  VIOLATED"
		}
		e.Printf("  %-44s %14d %14d %6d %6d%s\n",
			j.Label, j.Makespan, j.PathNs, j.Segments, j.Start, mark)
	}

	e.Printf("\ncritical time by phase (vs flat profiler attribution):\n")
	e.Printf("  %-14s %14s %7s %14s %7s\n", "phase", "crit_ns", "crit%", "flat_ns", "flat%")
	for ph := 0; ph < numPhases; ph++ {
		var flat sim.Time
		if ph < int(profile.NumPhases) {
			flat = t.flat[ph]
		}
		if t.byPhase[ph] == 0 && flat == 0 {
			continue
		}
		e.Printf("  %-14s %14d %6.2f%% %14d %6.2f%%\n",
			PhaseName(uint8(ph)), t.byPhase[ph], profile.Pct(t.byPhase[ph], t.total),
			flat, profile.Pct(flat, t.flatTot))
	}

	e.Printf("\ncritical time by operation:\n")
	e.Printf("  %-8s %14s %7s\n", "op", "crit_ns", "crit%")
	for op := uint8(0); op <= opNone; op++ {
		if ns := t.byOp[op]; ns != 0 {
			e.Printf("  %-8s %14d %6.2f%%\n", OpName(op), ns, profile.Pct(ns, t.total))
		}
	}

	e.Printf("\ntop wait chains (critical waits by park reason x releasing rank):\n")
	e.Printf("  %-24s %8s %8s %14s %7s\n", "why", "by-rank", "count", "wait_ns", "crit%")
	for i, k := range t.chainKys {
		if i >= 20 {
			e.Printf("  ... %d more\n", len(t.chainKys)-i)
			break
		}
		v := r.agg.chains[k]
		by := fmt.Sprintf("%d", k.from)
		if k.from < 0 {
			by = "local"
		}
		e.Printf("  %-24s %8s %8d %14d %6.2f%%\n", k.why, by, v.count, v.ns, profile.Pct(v.ns, t.total))
	}

	e.Printf("\ncritical time by NIC:\n")
	e.Printf("  %-6s %14s %7s\n", "nic", "crit_ns", "crit%")
	for _, nic := range sortedI32(t.byNic) {
		name := fmt.Sprintf("%d", nic)
		if nic < 0 {
			name = "-"
		}
		e.Printf("  %-6s %14d %6.2f%%\n", name, t.byNic[nic], profile.Pct(t.byNic[nic], t.total))
	}

	e.Printf("\ncritical time by rank (top 10):\n")
	e.Printf("  %-6s %14s %7s\n", "rank", "crit_ns", "crit%")
	ranks := sortedI32(t.byRank)
	sort.SliceStable(ranks, func(i, j int) bool { return t.byRank[ranks[i]] > t.byRank[ranks[j]] })
	for i, rank := range ranks {
		if i >= 10 {
			e.Printf("  ... %d more\n", len(ranks)-i)
			break
		}
		e.Printf("  %-6d %14d %6.2f%%\n", rank, t.byRank[rank], profile.Pct(t.byRank[rank], t.total))
	}
	return e.Err
}

// --- JSON artifact ---------------------------------------------------

type jobJSON struct {
	Label      string `json:"label"`
	MakespanNs int64  `json:"makespan_ns"`
	PathNs     int64  `json:"path_ns"`
	Segments   int    `json:"segments"`
	StartRank  int    `json:"start_rank"`
}

type phaseJSON struct {
	Phase  string `json:"phase"`
	CritNs int64  `json:"crit_ns"`
	FlatNs int64  `json:"flat_ns"`
}

type opJSON struct {
	Op     string `json:"op"`
	CritNs int64  `json:"crit_ns"`
}

type nicJSON struct {
	Nic    int   `json:"nic"`
	CritNs int64 `json:"crit_ns"`
}

type rankJSON struct {
	Rank   int   `json:"rank"`
	CritNs int64 `json:"crit_ns"`
}

type chainJSON struct {
	Why    string `json:"why"`
	From   int    `json:"from"`
	Count  int64  `json:"count"`
	WaitNs int64  `json:"wait_ns"`
}

type critDoc struct {
	Schema  string      `json:"schema"`
	TotalNs int64       `json:"total_ns"`
	Jobs    []jobJSON   `json:"jobs"`
	Phases  []phaseJSON `json:"phases"`
	Ops     []opJSON    `json:"ops"`
	Nics    []nicJSON   `json:"nics"`
	Ranks   []rankJSON  `json:"ranks"`
	Chains  []chainJSON `json:"chains"`
}

// WriteJSON writes the deterministic CRIT artifact: virtual-time
// attribution only (no hop references, no host times), with every
// table in a fixed sort order, so repeated runs produce byte-identical
// files. The current job is flushed first.
func (r *Rec) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.Flush()
	t := r.tables()
	doc := critDoc{
		Schema:  "armci-crit/1",
		TotalNs: int64(t.total),
		Jobs:    []jobJSON{},
		Phases:  []phaseJSON{},
		Ops:     []opJSON{},
		Nics:    []nicJSON{},
		Ranks:   []rankJSON{},
		Chains:  []chainJSON{},
	}
	for _, j := range r.agg.jobs {
		doc.Jobs = append(doc.Jobs, jobJSON{Label: j.Label,
			MakespanNs: int64(j.Makespan), PathNs: int64(j.PathNs),
			Segments: j.Segments, StartRank: j.Start})
	}
	for ph := 0; ph < numPhases; ph++ {
		var flat sim.Time
		if ph < int(profile.NumPhases) {
			flat = t.flat[ph]
		}
		if t.byPhase[ph] == 0 && flat == 0 {
			continue
		}
		doc.Phases = append(doc.Phases, phaseJSON{Phase: PhaseName(uint8(ph)),
			CritNs: int64(t.byPhase[ph]), FlatNs: int64(flat)})
	}
	for op := uint8(0); op <= opNone; op++ {
		if ns := t.byOp[op]; ns != 0 {
			doc.Ops = append(doc.Ops, opJSON{Op: OpName(op), CritNs: int64(ns)})
		}
	}
	for _, nic := range sortedI32(t.byNic) {
		doc.Nics = append(doc.Nics, nicJSON{Nic: int(nic), CritNs: int64(t.byNic[nic])})
	}
	for _, rank := range sortedI32(t.byRank) {
		doc.Ranks = append(doc.Ranks, rankJSON{Rank: int(rank), CritNs: int64(t.byRank[rank])})
	}
	for _, k := range t.chainKys {
		v := r.agg.chains[k]
		doc.Chains = append(doc.Chains, chainJSON{Why: k.why, From: int(k.from),
			Count: v.count, WaitNs: int64(v.ns)})
	}
	return profile.WriteJSON(w, &doc)
}
