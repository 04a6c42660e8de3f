// Command benchdiff compares two benchmark artifacts (the BENCH_*,
// PROF_*, and CRIT_* JSON files armci-bench writes) and exits nonzero
// when they differ.
//
// Usage:
//
//	benchdiff [-tol frac] golden candidate
//
// By default the comparison is byte-exact — the contract every guarded
// virtual-time artifact in results/ is held to — but unlike cmp a
// mismatch is reported as a structural JSON diff (which keys and values
// moved, not which byte), so a CI failure names the series and points
// that drifted.
//
// -tol relaxes number comparison to a relative tolerance, for
// artifacts whose values are machine dependent: shapes and labels must
// still match exactly, numbers may drift by the given fraction.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// maxReported caps the mismatch lines printed; the total is always
// reported, so a wholesale divergence stays readable.
const maxReported = 25

func main() {
	tol := flag.Float64("tol", 0, "relative tolerance for numeric values (0 = byte-exact)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol frac] golden candidate")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *tol < 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -tol must be non-negative")
		os.Exit(2)
	}
	golden, candidate := flag.Arg(0), flag.Arg(1)
	diffs, err := compareFiles(golden, candidate, *tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(diffs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %s and %s differ (%d mismatches):\n", golden, candidate, len(diffs))
	for i, d := range diffs {
		if i == maxReported {
			fmt.Fprintf(os.Stderr, "  ... %d more\n", len(diffs)-maxReported)
			break
		}
		fmt.Fprintln(os.Stderr, " ", d)
	}
	os.Exit(1)
}

// compareFiles reads both artifacts and returns the mismatch list.
// With tol == 0 a byte-equal pair short-circuits; a byte difference is
// then explained structurally (or, for non-JSON content, reported as
// the raw byte divergence).
func compareFiles(golden, candidate string, tol float64) ([]string, error) {
	gb, err := os.ReadFile(golden)
	if err != nil {
		return nil, err
	}
	cb, err := os.ReadFile(candidate)
	if err != nil {
		return nil, err
	}
	if bytes.Equal(gb, cb) {
		return nil, nil
	}
	var gv, cv any
	if json.Unmarshal(gb, &gv) != nil || json.Unmarshal(cb, &cv) != nil {
		// Not JSON (or broken JSON): all we can say is where the bytes
		// diverge.
		return []string{fmt.Sprintf("content differs at byte %d (not valid JSON on both sides)", firstByteDiff(gb, cb))}, nil
	}
	d := &differ{tol: tol}
	d.compare("$", gv, cv)
	if len(d.diffs) == 0 && tol == 0 {
		// Structurally identical but byte-different (formatting,
		// key order in source text): still a guarded-artifact failure.
		d.diffs = append(d.diffs, fmt.Sprintf("values match but bytes differ at offset %d (formatting drift)", firstByteDiff(gb, cb)))
	}
	return d.diffs, nil
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

type differ struct {
	tol   float64
	diffs []string
}

func (d *differ) addf(format string, args ...any) {
	d.diffs = append(d.diffs, fmt.Sprintf(format, args...))
}

// compare walks both JSON values in parallel, recording every
// structural or value mismatch with its path.
func (d *differ) compare(path string, g, c any) {
	switch gv := g.(type) {
	case map[string]any:
		cv, ok := c.(map[string]any)
		if !ok {
			d.addf("%s: object in golden, %s in candidate", path, kind(c))
			return
		}
		keys := make([]string, 0, len(gv))
		for k := range gv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, ok := cv[k]; !ok {
				d.addf("%s.%s: missing in candidate", path, k)
				continue
			}
			d.compare(path+"."+k, gv[k], cv[k])
		}
		extra := make([]string, 0)
		for k := range cv {
			if _, ok := gv[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			d.addf("%s.%s: extra in candidate", path, k)
		}
	case []any:
		cv, ok := c.([]any)
		if !ok {
			d.addf("%s: array in golden, %s in candidate", path, kind(c))
			return
		}
		if len(gv) != len(cv) {
			d.addf("%s: length %d in golden, %d in candidate", path, len(gv), len(cv))
		}
		n := len(gv)
		if len(cv) < n {
			n = len(cv)
		}
		for i := 0; i < n; i++ {
			d.compare(fmt.Sprintf("%s[%d]", path, i), gv[i], cv[i])
		}
	case float64:
		cf, ok := c.(float64)
		if !ok {
			d.addf("%s: number in golden, %s in candidate", path, kind(c))
			return
		}
		if !d.numEqual(gv, cf) {
			d.addf("%s: %v in golden, %v in candidate", path, gv, cf)
		}
	default:
		if g != c {
			d.addf("%s: %v in golden, %v in candidate", path, g, c)
		}
	}
}

// numEqual compares two numbers under the tolerance: exact at tol 0,
// otherwise |g-c| <= tol * max(|g|, |c|) (so a zero golden value still
// admits a proportionally small candidate).
func (d *differ) numEqual(g, c float64) bool {
	if g == c {
		return true
	}
	if d.tol == 0 {
		return false
	}
	scale := math.Max(math.Abs(g), math.Abs(c))
	return math.Abs(g-c) <= d.tol*scale
}

func kind(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return "?"
}
