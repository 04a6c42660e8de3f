package main

import (
	"bytes"
	"encoding/json"
	"strings"

	"repro/internal/obs"
)

// layers are the repo's packages, the unit per-layer metrics are
// attributed to. platform and core fold into harness; obs covers its
// profile and critpath sub-packages; bench is generator glue.
var layers = []string{
	"sim", "fabric", "mpi", "armci", "conflicttree", "armcimpi", "native",
	"dataserver", "dartmpi", "ga", "nwchem", "obs", "harness", "bench",
}

// layerOf maps a profiled function name to its layer, or "" for a
// function outside repro/internal (the Go runtime, this program).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if pkg == "platform" || pkg == "core" {
		return "harness"
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "bench"
}

// rollup attributes every CPU sample to exactly one bucket: the
// innermost repro/internal/<pkg> frame on its stack gives
// <layer>.cpu_s (so Go-runtime work counts under the layer that caused
// it), a leaf inside that package also gives <layer>.self_s, and a
// stack with no repo frame goes to go.gc_s, go.sched_s or go.other_s.
// The cpu_s rows and the three go.*_s rows sum to the profile total.
func rollup(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		out["profile.total_s"] += sec
		bucket := ""
		for i, fn := range s.stack { // leaf first
			if l := layerOf(fn); l != "" {
				bucket = l + ".cpu_s"
				if i == 0 {
					out[l+".self_s"] += sec
				}
				break
			}
		}
		if bucket == "" {
			bucket = goBucket(s.stack)
		}
		out[bucket] += sec
	}
	return out
}

// goBucket classifies a stack with no repo frame.
func goBucket(stack []string) string {
	sched := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.(*gc"),
			fn == "runtime.bgsweep", fn == "runtime.bgscavenge", fn == "runtime.scanobject",
			fn == "runtime.markroot", fn == "runtime.sweepone":
			return "go.gc_s"
		case fn == "runtime.schedule", fn == "runtime.findRunnable", fn == "runtime.park_m",
			fn == "runtime.mcall", fn == "runtime.mstart", fn == "runtime.goexit0",
			fn == "runtime.gosched_m", fn == "runtime.sysmon":
			sched = true
		}
	}
	if sched {
		return "go.sched_s"
	}
	return "go.other_s"
}

// recorderCounts reads the work-done counts of a full recorder
// repetition, only through the recorder's report writers, and checks
// the critical path tiles the makespan exactly.
func recorderCounts(rec *obs.Recorder) (map[string]float64, check, error) {
	var stats struct {
		Counters map[string][]int64 `json:"counters"`
		TimesNs  map[string][]int64 `json:"times_ns"`
	}
	var prof struct {
		Ops []struct {
			Phases []struct {
				Phase string `json:"phase"`
				Hist  struct {
					SumNs int64 `json:"sum_ns"`
				} `json:"hist"`
			} `json:"phases"`
		} `json:"ops"`
		Links []struct {
			BusyNs   int64 `json:"busy_ns"`
			QueuedNs int64 `json:"queued_ns"`
		} `json:"links"`
	}
	var crit struct {
		Jobs []struct {
			MakespanNs int64 `json:"makespan_ns"`
			PathNs     int64 `json:"path_ns"`
		} `json:"jobs"`
		Chains []struct {
			Count int64 `json:"count"`
		} `json:"chains"`
	}
	var b bytes.Buffer
	for _, doc := range []struct {
		write func() error
		into  any
	}{
		{func() error { return rec.WriteStatsJSON(&b) }, &stats},
		{func() error { return rec.Prof().WriteJSON(&b) }, &prof},
		{func() error { return rec.Crit().WriteJSON(&b) }, &crit},
	} {
		b.Reset()
		if err := doc.write(); err != nil {
			return nil, check{}, err
		}
		if err := json.Unmarshal(b.Bytes(), doc.into); err != nil {
			return nil, check{}, err
		}
	}

	total := func(vals []int64) float64 {
		var t int64
		for _, v := range vals {
			t += v
		}
		return float64(t)
	}
	out := map[string]float64{}
	for metric, counter := range map[string]string{
		"fabric.msgs":               obs.CFabMsgs,
		"fabric.bytes":              obs.CFabBytes,
		"mpi.epochs":                obs.CEpochs,
		"mpi.bytes_contig":          obs.CBytesContig,
		"mpi.bytes_packed":          obs.CBytesPacked,
		"mpi.bytes_shm":             obs.CBytesShm,
		"armcimpi.plan_exec":        obs.CPlanExec,
		"armcimpi.plan_segs":        obs.CPlanSegs,
		"armcimpi.gmr_allocs":       obs.CGmrAlloc,
		"armcimpi.route_self_ops":   obs.CRouteSelf,
		"armcimpi.route_node_ops":   obs.CRouteNode,
		"armcimpi.route_rma_ops":    obs.CRouteRMA,
		"armcimpi.route_staged_ops": obs.CRouteStaged,
	} {
		out[metric] = total(stats.Counters[counter])
	}
	out["mpi.lock_wait_ns"] = total(stats.TimesNs[obs.TLockWaitShared]) + total(stats.TimesNs[obs.TLockWaitExcl])
	for _, l := range prof.Links {
		out["fabric.nic_busy_ns"] += float64(l.BusyNs)
		out["fabric.nic_queued_ns"] += float64(l.QueuedNs)
	}
	for _, op := range prof.Ops {
		for _, ph := range op.Phases {
			out["virt.phase_ns."+strings.ReplaceAll(ph.Phase, ".", "_")] += float64(ph.Hist.SumNs)
		}
	}
	// The stats report carries parked time, not a park count; the
	// critical-path report counts the blocking parks on the path.
	for _, c := range crit.Chains {
		out["sim.parks"] += float64(c.Count)
	}
	var path, makespan int64
	unequal := 0
	for _, j := range crit.Jobs {
		path += j.PathNs
		makespan += j.MakespanNs
		if j.PathNs != j.MakespanNs {
			unequal++
		}
	}
	out["virt.crit_path_ns"], out["virt.makespan_ns"] = float64(path), float64(makespan)
	chk := checkf("crit_path_equals_makespan", unequal == 0 && len(crit.Jobs) > 0, "path != makespan in %d of %d jobs (totals %d and %d ns)", unequal, len(crit.Jobs), path, makespan)
	return out, chk, nil
}
