// Command nwchem-bench regenerates the paper's Figure 6: NWChem
// CCSD(T) proxy execution time versus process count for ARMCI-Native
// and ARMCI-MPI on the four simulated platforms. The paper shows CCSD
// for all platforms and (T) for the InfiniBand cluster and Cray XE6;
// this harness follows suit unless -triples overrides.
//
// Usage:
//
//	nwchem-bench [-platform bgp|ib|xt5|xe6] [-quick] [-triples=auto|on|off]
//	nwchem-bench -cores 8,16,32
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/platform"
)

func main() {
	plat := flag.String("platform", "", "platform (bgp, ib, xt5, xe6); empty = all")
	quick := flag.Bool("quick", false, "reduced sweep")
	triples := flag.String("triples", "auto", "include the (T) phase: auto (IB and XE6, as the paper), on, off")
	cores := flag.String("cores", "", "comma-separated process counts (overrides defaults)")
	flag.Parse()

	if err := run(os.Stdout, *plat, *quick, *triples, *cores); err != nil {
		fmt.Fprintln(os.Stderr, "nwchem-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, plat string, quick bool, triples, cores string) error {
	cfg := bench.DefaultFig6()
	if quick {
		cfg = bench.QuickFig6()
	}
	if cores != "" {
		cfg.Cores = nil
		for _, f := range strings.Split(cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -cores entry %q", f)
			}
			cfg.Cores = append(cfg.Cores, n)
		}
	}
	var plats []*platform.Platform
	if plat == "" {
		plats = platform.All()
	} else {
		p, err := platform.Lookup(plat)
		if err != nil {
			return err
		}
		plats = []*platform.Platform{p}
	}
	for _, p := range plats {
		withT := false
		switch triples {
		case "on":
			withT = true
		case "off":
		case "auto":
			// The paper shows (T) timings for the InfiniBand cluster and
			// the Cray XE6 (Figure 6).
			withT = p.Name == platform.InfiniBand || p.Name == platform.CrayXE6
		default:
			return fmt.Errorf("bad -triples %q", triples)
		}
		fig, err := bench.Fig6(p, cfg, withT)
		if err != nil {
			return err
		}
		fig.Print(w)
	}
	return nil
}
