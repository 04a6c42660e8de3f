package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/platform"
)

// check is one correctness check of the oracle. Failed checks are the
// run's failures; checks made are its attempts.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// shapeCCSD: CCSD time falls monotonically with ranks for both
// runtimes on ib (EXPERIMENTS.md, Figure 6).
func shapeCCSD(figs []*bench.Figure) []check {
	var out []check
	for _, label := range []string{"ARMCI-MPI CCSD", "ARMCI-Native CCSD"} {
		s := figs[0].Get(label)
		ok := s != nil && len(s.Y) > 1
		for i := 1; ok && i < len(s.Y); i++ {
			ok = s.Y[i] < s.Y[i-1]
		}
		out = append(out, checkf("ccsd_time_falls_with_ranks/"+label, ok, "series %v", s))
	}
	return out
}

// shapeContig: every curve rises monotonically to saturation; on ib
// native get is at least ARMCI-MPI's at the largest size; on xe6
// ARMCI-MPI put beats native at the largest size (EXPERIMENTS.md,
// Figure 3).
func shapeContig(figs []*bench.Figure) []check {
	var out []check
	curves, bad := 0, ""
	for _, f := range figs {
		for _, s := range f.Series {
			curves++
			// Saturation is flat to within rounding of the per-op overheads.
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1]*0.999 && bad == "" {
					bad = fmt.Sprintf("%s %q falls at x=%g: %g -> %g", f.Name, s.Label, s.X[i], s.Y[i-1], s.Y[i])
				}
			}
		}
	}
	out = append(out, checkf("contig_curves_monotone_to_saturation", bad == "" && curves > 0, "%s", bad))
	last := func(plat, label string) float64 {
		for _, f := range figs {
			if f.Name == "fig3-"+plat {
				if s := f.Get(label); s != nil {
					return s.Last()
				}
			}
		}
		return 0
	}
	natGet, mpiGet := last(platform.InfiniBand, "get (Nat.)"), last(platform.InfiniBand, "get (MPI)")
	out = append(out, checkf("contig_ib_native_get_ge_mpi", mpiGet > 0 && natGet >= mpiGet, "native %g, ARMCI-MPI %g", natGet, mpiGet))
	natPut, mpiPut := last(platform.CrayXE6, "put (Nat.)"), last(platform.CrayXE6, "put (MPI)")
	out = append(out, checkf("contig_xe6_mpi_put_gt_native", natPut > 0 && mpiPut > natPut, "ARMCI-MPI %g, native %g", mpiPut, natPut))
	return out
}

// shapeStrided: the conservative method is the slowest ARMCI-MPI
// method at the largest segment count in every panel (EXPERIMENTS.md,
// Figure 4).
func shapeStrided(figs []*bench.Figure) []check {
	bad := ""
	for _, f := range figs {
		cons := f.Get("IOV-Consrv")
		if cons == nil {
			bad = f.Name + ": no IOV-Consrv series"
			break
		}
		for _, label := range []string{"Direct", "IOV-Direct", "IOV-Batched"} {
			if s := f.Get(label); s == nil || s.Last() < cons.Last() {
				bad = fmt.Sprintf("%s: %s is below IOV-Consrv %g", f.Name, label, cons.Last())
			}
		}
	}
	return []check{checkf("strided_conservative_slowest", bad == "" && len(figs) > 0, "%s", bad)}
}

// repoRoot finds the checkout the benchmark runs in: the nearest
// directory at or above the working directory that holds results/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "results", "BENCH_scale.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no results/BENCH_scale.json at or above the working directory")
		}
		dir = parent
	}
}

// compareGuarded checks regenerated figure JSON against the checked-out
// results/BENCH_<name>.json — never a copy kept here, so a deliberate
// re-baseline needs no benchmark edit.
func compareGuarded(name string, got []byte) check {
	cname := "guarded_artifact/" + name
	root, err := repoRoot()
	if err != nil {
		return checkf(cname, false, "%v", err)
	}
	want, err := os.ReadFile(filepath.Join(root, "results", "BENCH_"+name+".json"))
	if err != nil {
		return checkf(cname, false, "%v", err)
	}
	return checkf(cname, bytes.Equal(got, want), "regenerated BENCH_%s.json differs from results/ (%d vs %d bytes)", name, len(got), len(want))
}

// guardChecks regenerates the four quick guarded artifacts (about a
// second in total) and compares each with results/.
func guardChecks() []check {
	ib := platform.Get(platform.InfiniBand)
	gens := []func() (*bench.Figure, error){
		func() (*bench.Figure, error) { return bench.Fig3(ib, bench.QuickFig3()) },
		func() (*bench.Figure, error) { return bench.AblationShm(ib, bench.QuickShmAblation()) },
		func() (*bench.Figure, error) { return bench.AblationNbFanout(ib, bench.QuickNbFanout()) },
		func() (*bench.Figure, error) { return bench.AblationLocality(ib, bench.QuickLocalityAblation()) },
	}
	var out []check
	for i, gen := range gens {
		fig, err := gen()
		if err != nil {
			out = append(out, checkf(fmt.Sprintf("guarded_artifact/#%d", i), false, "%v", err))
			continue
		}
		var b bytes.Buffer
		if err := fig.WriteJSON(&b); err != nil {
			out = append(out, checkf("guarded_artifact/"+fig.Name, false, "%v", err))
			continue
		}
		out = append(out, compareGuarded(fig.Name, b.Bytes()))
	}
	return out
}

// failures lists the failed checks, one per line.
func failures(checks []check) string {
	var b strings.Builder
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(&b, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	return b.String()
}
