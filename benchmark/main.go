// Command benchmark is the repo's performance ruler: it regenerates the
// paper's evaluation figures the way the CLIs do, once per repetition in
// a fresh child process, and reports what that costs on both clocks —
// host seconds, CPU, allocations and peak memory, and the virtual-time
// answer the model gives. A separate traced run attributes host time to
// each layer. See README.md in this directory for every metric.
//
// Usage (from the repository root):
//
//	go run ./benchmark                       # suite: every workload, stock repetitions
//	go run ./benchmark -trace 1              # suite plus the traced (per-layer) runs
//	go run ./benchmark -aa                   # two interleaved sets, differences beside bounds
//	go run ./benchmark -workload contig -seed 3 -seconds 25 -trace 0   # one run, as the driver makes it
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (ccsd, contig, strided, scale); empty = the suite")
	seed := fs.Int64("seed", 0, "workload seed; 0 = the stock figure configuration")
	seconds := fs.Int("seconds", 0, "repetition budget per workload in seconds; 0 = the stock repetition counts")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans written as Chrome trace JSON")
	aa := fs.Bool("aa", false, "run two interleaved untraced sets and print each difference beside its bound")
	smoke := fs.Bool("smoke", false, "quick configurations, one repetition (the tier-1 smoke)")
	out := fs.String("out", ".bench_out", "directory for profiles, the span trace and child scratch space")
	var c childArgs
	fs.StringVar(&c.kind, "child", "", "internal: run one child step and print its result as JSON")
	fs.BoolVar(&c.dry, "dry", false, "internal: child skips the generator calls (set-up probe)")
	fs.IntVar(&c.obs, "obs", 0, "internal: child attaches a recorder (1 metrics, 2 +profile, 3 +critpath)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "internal: child writes a CPU profile of the generator calls")
	fs.BoolVar(&c.spans, "spans", false, "internal: child records a span per generator or driver call")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var ws []*workload
	if *name == "" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if c.kind != "" {
		c.seed, c.smoke = *seed, *smoke
		if err := runChild(ws[0], c, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark child:", err)
			return 1
		}
		return 0
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	r := &runner{self: self, out: outDir, smoke: *smoke, seed: *seed, seconds: *seconds, stdout: stdout, stderr: stderr}
	if *smoke {
		*trace = 1
	}
	if *trace != 0 {
		r.tr = &tracer{}
	}
	failed, err := r.run(ws, *aa, *name != "", *trace != 0)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}
