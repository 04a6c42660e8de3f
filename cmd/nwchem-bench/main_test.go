package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name, plat, triples, cores string
		want                       []string // substrings of the error
	}{
		{name: "bad -triples", plat: "ib", triples: "maybe", want: []string{`bad -triples "maybe"`}},
		{name: "bad -cores", plat: "ib", triples: "auto", cores: "8,x", want: []string{`bad -cores entry "x"`}},
		{name: "non-positive -cores", plat: "ib", triples: "auto", cores: "0", want: []string{`bad -cores entry "0"`}},
		{name: "unknown platform", plat: "vax", triples: "auto", want: []string{"vax"}},
		// Every requested count is above the platform's cap: an error that
		// says so, not an empty panel and exit 0.
		{name: "oversize -cores", plat: "ib", triples: "auto", cores: "100000", want: []string{"ib", "100000", "2560"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tc.plat, true, tc.triples, tc.cores)
			if err == nil {
				t.Fatalf("no error; printed:\n%s", out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if out.Len() != 0 {
				t.Errorf("printed a panel before failing:\n%s", out.String())
			}
		})
	}
}

// A sweep that is only partly above the cap keeps the points that fit.
func TestRunSkipsOversizeCores(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "ib", true, "off", "4,100000"); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := rows[len(rows)-1]; !strings.HasPrefix(last, "4 ") || strings.Contains(out.String(), "100000") {
		t.Errorf("want one row, at 4 processes:\n%s", out.String())
	}
}

// The golden is what the parent of the figure sweep printed for
// `nwchem-bench -quick -platform ib`, one job after another.
func TestRunQuickIBGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-ib.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, "ib", true, "auto", ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/quick-ib.golden.txt:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}
