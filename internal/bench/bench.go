// Package bench regenerates every table and figure of the paper's
// evaluation (SectionVII): contiguous bandwidth (Figure 3), strided
// bandwidth across transfer methods (Figure 4), the interoperability /
// registration study (Figure 5), NWChem CCSD(T) scaling (Figure 6),
// the platform table (Table II), and the ablations DESIGN.md calls out.
//
// All measurements are in deterministic virtual time, so results are
// exactly reproducible; absolute numbers are properties of the
// calibrated platform models, and the claims to compare against the
// paper are the shapes: orderings, crossovers, and rough ratios.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Series is one labelled curve: y(x) samples in ascending x.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// Figure is a set of curves sharing an axis, and its own JSON document:
// field order is fixed by the struct, and every value is derived from
// deterministic virtual-time measurements, so repeat runs produce
// byte-identical output.
type Figure struct {
	Name   string   `json:"name"` // e.g. "fig3-bgp-get"
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
}

// Add appends a sample to the named series, creating it on first use.
func (f *Figure) Add(label string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].X = append(f.Series[i].X, x)
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, X: []float64{x}, Y: []float64{y}})
}

// Get returns the series with the given label, or nil.
func (f *Figure) Get(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// WriteText writes the figure as aligned gnuplot-style columns: one x
// column followed by one column per series.
func (f *Figure) WriteText(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	// Collect the union of x values.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	xlist := make([]float64, 0, len(xs))
	for x := range xs {
		xlist = append(xlist, x)
	}
	sort.Float64s(xlist)
	// Header.
	fmt.Fprintf(&b, "%-12s", "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %-16s", strings.ReplaceAll(s.Label, " ", "_"))
	}
	fmt.Fprintln(&b)
	for _, x := range xlist {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			v, ok := s.At(x)
			if ok {
				fmt.Fprintf(&b, " %-16.6g", v)
			} else {
				fmt.Fprintf(&b, " %-16s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// WriteJSON writes the figure as deterministic machine-readable JSON;
// an empty list prints as [], not null.
func (f *Figure) WriteJSON(w io.Writer) error {
	out := *f
	out.Series = make([]Series, len(f.Series))
	for i, s := range f.Series {
		out.Series[i] = Series{Label: s.Label, X: orEmpty(s.X), Y: orEmpty(s.Y)}
	}
	return profile.WriteJSON(w, &out)
}

func orEmpty(v []float64) []float64 {
	if v == nil {
		return []float64{}
	}
	return v
}

// At returns the y value at exactly x.
func (s *Series) At(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Last returns the final sample of the series.
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// bandwidth converts (bytes, duration) into GB/s.
func bandwidth(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

// pow2s returns 2^lo .. 2^hi.
func pow2s(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}
