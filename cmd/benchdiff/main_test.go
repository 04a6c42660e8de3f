package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompareFiles pins compareFiles' verdicts and its plain output, one
// line per mismatch naming the JSON path that moved.
func TestCompareFiles(t *testing.T) {
	const golden = `{
  "name": "fig3-ib",
  "series": [
    {"label": "get (Nat.)", "x": [8, 16], "y": [0.25, 0.5]},
    {"label": "get (MPI)", "x": [8, 16], "y": [0.125, 0.375]}
  ]
}
`
	for _, tc := range []struct {
		name, candidate string
		tol             float64
		want            []string
	}{
		{name: "identical", candidate: golden},
		{
			name:      "one moved point",
			candidate: `{"name": "fig3-ib", "series": [{"label": "get (Nat.)", "x": [8, 16], "y": [0.25, 0.5]}, {"label": "get (MPI)", "x": [8, 16], "y": [0.125, 0.4]}]}`,
			want:      []string{"$.series[1].y[1]: 0.375 in golden, 0.4 in candidate"},
		},
		{
			name:      "move inside tol",
			candidate: `{"name": "fig3-ib", "series": [{"label": "get (Nat.)", "x": [8, 16], "y": [0.25, 0.5]}, {"label": "get (MPI)", "x": [8, 16], "y": [0.125, 0.376]}]}`,
			tol:       0.01,
		},
		{
			name:      "changed label under tol",
			candidate: `{"name": "fig3-ib", "series": [{"label": "get (Native)", "x": [8, 16], "y": [0.25, 0.5]}, {"label": "get (MPI)", "x": [8, 16], "y": [0.125, 0.375]}]}`,
			tol:       0.5,
			want:      []string{"$.series[0].label: get (Nat.) in golden, get (Native) in candidate"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g, c := filepath.Join(dir, "golden.json"), filepath.Join(dir, "candidate.json")
			if err := os.WriteFile(g, []byte(golden), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c, []byte(tc.candidate), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := compareFiles(g, c, tc.tol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("compareFiles = %q, want %q", got, tc.want)
			}
		})
	}
}
