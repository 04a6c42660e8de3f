package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"unicode"
)

// TestSurface keeps the benchmark off everything the ROADMAP plans to
// delete or reshape — the scheduler-mode and shard knobs, the
// collective threshold, the two fabric delivery paths, the recorder's
// hook methods — so the simplicity PRs can land without touching this
// directory. It is syntactic: any identifier of that name fails,
// whatever it belongs to.
func TestSurface(t *testing.T) {
	banned := map[string]string{
		"Sched":            "harness.Sched / ScaleConfig.Sched",
		"Shards":           "harness.Shards / Engine.Shards",
		"Mode":             "Engine.Mode",
		"ParseMode":        "sim.ParseMode",
		"BigCommThreshold": "mpi.BigCommThreshold",
		"Deliver":          "Machine.Deliver",
		"DeliverSharded":   "Machine.DeliverSharded",
		"Inc":              "Recorder.Inc",
		"SpanLane":         "Recorder.SpanLane",
		"Link":             "Prof().Link",
		"MsgHop":           "Crit().MsgHop",
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				why, bad := banned[n.Name]
				if rest, ok := strings.CutPrefix(n.Name, "Mode"); ok && rest != "" && unicode.IsUpper(rune(rest[0])) {
					why, bad = "sim.Mode* constant", true
				}
				if bad {
					t.Errorf("%s: %s is on the ROADMAP deletion list (%s)", fset.Position(n.Pos()), n.Name, why)
				}
			case *ast.CallExpr:
				// Recorder.Add(rank, name, v) and Recorder.Span(rank, cat,
				// name, start, end, ...) share their names with
				// time.Time.Add, armci.Addr.Add and mpi.Datatype.Span,
				// which take fewer arguments.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if name := sel.Sel.Name; name == "Add" && len(n.Args) == 3 || name == "Span" && len(n.Args) >= 5 {
						t.Errorf("%s: this %s call looks like the recorder hook Recorder.%s", fset.Position(n.Pos()), name, name)
					}
				}
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no Go sources parsed")
	}
}
