package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

func recording(f *figure) bool { return f.records }

// TestObsFlagsNeedARecordingFigure: an observability flag on a figure
// whose jobs take no recorder used to print an empty report and exit 0;
// it is an error before anything runs, naming the figures that record.
// A recording figure passes the check (it would go on to run, so only
// the check is called for those).
func TestObsFlagsNeedARecordingFigure(t *testing.T) {
	for _, a := range []args{
		{fig: "ablations", profile: true},
		{fig: "table2", stats: true},
		{fig: "6", stats: true},
		{fig: "ablation-nbfanout", critpath: true},
		{fig: "table2", trace: "t.json"},
		{fig: "ablations", stats: true, profile: true, critpath: true, trace: "t.json"},
		{fig: "results", profile: true, jsonDir: t.TempDir()},
	} {
		err := run(io.Discard, a)
		if err == nil || !strings.Contains(err.Error(), "-fig "+a.fig+" records nothing") ||
			!strings.Contains(err.Error(), "ablation-locality") {
			t.Errorf("%+v: err = %v, want one naming the figure and those that record", a, err)
		}
	}
	for _, fig := range append([]string{"all"}, figNames(recording)...) {
		a := args{fig: fig, stats: true, profile: true, critpath: true, trace: "t.json"}
		if _, err := checkArgs(&a); err != nil {
			t.Errorf("-fig %s with every observability flag: %v", fig, err)
		}
	}
	if _, err := checkArgs(&args{fig: "table2"}); err != nil {
		t.Errorf("no observability flag: %v", err)
	}
	if got, want := figNames(recording), []string{"3", "4", "5", "ablation-shm", "ablation-locality", "scale"}; !slices.Equal(got, want) {
		t.Errorf("recording figures = %v, want %v", got, want)
	}
}

// TestJSONNeedsAJSONFigure: -json on a figure with no JSON form used to
// exit 0 having written nothing; it is an error before anything runs,
// naming the figures that write JSON. -fig results needs the directory
// and takes no flag it would ignore.
func TestJSONNeedsAJSONFigure(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"table2"} {
		err := run(io.Discard, args{fig: fig, jsonDir: dir})
		if err == nil || !strings.Contains(err.Error(), "-fig "+fig+" writes no JSON") ||
			!strings.Contains(err.Error(), "3, 4, 5, 6, ablation-shm, ablation-nbfanout, ablation-locality, ablations, scale") {
			t.Errorf("-fig %s -json: err = %v, want one naming the figures that write JSON", fig, err)
		}
	}
	for _, a := range []args{
		{fig: "results"},
		{fig: "results", jsonDir: dir, quick: true},
		{fig: "results", jsonDir: dir, plat: "ib"},
	} {
		if err := run(io.Discard, a); err == nil || !strings.Contains(err.Error(), "-fig results takes -json DIR") {
			t.Errorf("%+v: err = %v", a, err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("rejected runs wrote %d files", len(ents))
	}
	for _, fig := range append([]string{"all"}, figNames(func(f *figure) bool { return f.gen != nil })...) {
		if _, err := checkArgs(&args{fig: fig, jsonDir: dir}); err != nil {
			t.Errorf("-fig %s -json: %v", fig, err)
		}
	}
}

// TestAblationsJSON: -fig ablations -json writes one BENCH_<name>.json
// per panel it prints, each the JSON rendering of that panel.
func TestAblationsJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, args{fig: "ablations", jsonDir: dir}); err != nil {
		t.Fatal(err)
	}
	var want, files []string
	for _, name := range []string{"rmw", "access-modes", "strided-bgp", "strided-ib", "strided-xt5", "strided-xe6",
		"batch", "async-progress", "mpi3", "dataserver-bw", "dataserver-ccsd"} {
		want = append(want, "BENCH_ablation-"+name+".json")
		if !strings.Contains(out.String(), "# ablation-"+name+" — ") {
			t.Errorf("the text has no ablation-%s panel", name)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		files = append(files, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Errorf("-fig ablations -json wrote %v, want %v", files, want)
	}
}

// TestUnknownNamesListValid: an unknown -fig or -platform is an error
// that lists the valid names, whatever the figure.
func TestUnknownNamesListValid(t *testing.T) {
	err := run(io.Discard, args{fig: "7"})
	if err == nil {
		t.Fatal("-fig 7 accepted")
	}
	for _, name := range append(figNames(func(*figure) bool { return true }), "all", "results") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-fig 7: %q does not list %s", err, name)
		}
	}
	for _, fig := range []string{"3", "5", "6", "table2", "fig3-vax"} {
		a := args{fig: fig, plat: "vax"}
		if fig == "fig3-vax" {
			a.plat = ""
		}
		err := run(io.Discard, a)
		if err == nil {
			t.Fatalf("-fig %s -platform vax accepted", fig)
		}
		for _, name := range platform.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-fig %s -platform vax: %q does not list %s", fig, err, name)
			}
		}
	}
}

// TestFigAll: -fig all is every figure but scale, in table order, Fig. 6
// and Table II included.
func TestFigAll(t *testing.T) {
	figs, err := checkArgs(&args{fig: "all"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range figs {
		got = append(got, f.name)
	}
	want := []string{"table2", "3", "4", "5", "6", "ablation-shm", "ablation-nbfanout", "ablation-locality", "ablations"}
	if !slices.Equal(got, want) {
		t.Errorf("-fig all = %v, want %v", got, want)
	}
}

// TestResultsManifest: the results table names exactly the files under
// results/. A committed file no row rebuilds, or a row whose file is not
// committed, fails here; every row's run passes the argument checks.
func TestResultsManifest(t *testing.T) {
	ents, err := os.ReadDir("../../results")
	if err != nil {
		t.Fatal(err)
	}
	var committed, rows []string
	for _, e := range ents {
		committed = append(committed, e.Name())
	}
	for _, r := range results {
		rows = append(rows, r.file)
		a := r.run
		if !strings.HasSuffix(r.file, ".txt") {
			a.jsonDir = t.TempDir()
		}
		if _, err := checkArgs(&a); err != nil {
			t.Errorf("%s: %v", r.file, err)
		}
	}
	slices.Sort(rows)
	if !slices.Equal(committed, rows) {
		t.Errorf("results/ holds %v\nthe results table names %v", committed, rows)
	}
}

// TestResultsRebuild runs the results rows that take well under a
// second and compares what each prints or writes with the committed
// file. The JSON rows run into a directory of their own, so the
// recorded fig3-ib runs that write PROF and CRIT must also reproduce
// BENCH_fig3-ib.json byte for byte: recording is pure observation.
// Under go test -race this also races the critical-path recorder. The
// full figure sweeps and the scale sweep take seconds each; the
// -fig results gate rebuilds them.
func TestResultsRebuild(t *testing.T) {
	slow := []string{"fig3.txt", "fig4.txt", "fig5.txt", "fig6.txt", "BENCH_scale.json"}
	for _, r := range results {
		if slices.Contains(slow, r.file) {
			continue
		}
		t.Run(r.file, func(t *testing.T) {
			got := map[string][]byte{}
			if strings.HasSuffix(r.file, ".txt") {
				var out bytes.Buffer
				if err := run(&out, r.run); err != nil {
					t.Fatal(err)
				}
				got[r.file] = out.Bytes()
			} else {
				a := r.run
				a.jsonDir = t.TempDir()
				if err := run(io.Discard, a); err != nil {
					t.Fatal(err)
				}
				ents, _ := os.ReadDir(a.jsonDir)
				for _, e := range ents {
					b, err := os.ReadFile(filepath.Join(a.jsonDir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					got[e.Name()] = b
				}
			}
			if got[r.file] == nil {
				t.Errorf("the run wrote no %s (wrote %d files)", r.file, len(got))
			}
			for name, b := range got {
				want, err := os.ReadFile(filepath.Join("../../results", name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, want) {
					t.Errorf("%s differs from results/%s", name, name)
				}
			}
		})
	}
}

// checkRecording compares got with the recording at path. A recording
// is what the commit before a change printed, so no flag rewrites it,
// -update included: a change that moves it is wrong, not a re-baseline.
func checkRecording(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestFig6QuickIBGolden: the golden is what the parent of the Fig. 6
// sweep printed for the quick InfiniBand panel, one job after another.
func TestFig6QuickIBGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, args{fig: "6", plat: "ib", quick: true}); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, "testdata/fig6-quick-ib.golden.txt", out.Bytes())
}

// TestObsReportsGolden: the -stats, -profile and -critpath text of the
// quick InfiniBand Fig. 3 panel is what the reports printed before
// each became a rendering of its instrument's document.
func TestObsReportsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, args{fig: "fig3-ib", quick: true, stats: true, profile: true, critpath: true}); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, "testdata/fig3-ib-quick-obs.golden.txt", out.Bytes())
}

var errWrite = errors.New("write failed")

// failingWriter fails every write but those that start with pass.
type failingWriter struct{ pass string }

func (f failingWriter) Write(p []byte) (int, error) {
	if f.pass != "" && bytes.HasPrefix(p, []byte(f.pass)) {
		return len(p), nil
	}
	return 0, errWrite
}

// TestWriteErrors: text that cannot be written fails the run, whether
// it is the figure's columns, one instrument's report (the figure
// written, the report not), Table II or the ablation rows. The figure,
// -stats, table2 and ablations used to drop the error and exit 0.
func TestWriteErrors(t *testing.T) {
	for _, c := range []struct {
		a    args
		pass string
	}{
		{args{fig: "fig3-ib", quick: true}, ""},
		{args{fig: "fig3-ib", quick: true, stats: true}, "# fig3-ib"},
		{args{fig: "fig3-ib", quick: true, profile: true}, "# fig3-ib"},
		{args{fig: "fig3-ib", quick: true, critpath: true}, "# fig3-ib"},
		{args{fig: "table2"}, ""},
		{args{fig: "ablations"}, ""},
	} {
		if err := run(failingWriter{c.pass}, c.a); !errors.Is(err, errWrite) {
			t.Errorf("%s stats=%v profile=%v critpath=%v: err = %v, want the write error", c.a.fig, c.a.stats, c.a.profile, c.a.critpath, err)
		}
	}
}

// TestInstallTweak covers the runtime-tuning flag surface: no flags
// installs no hook, bad method names are rejected before any sweep
// runs, and valid flags become an Options hook every benchmark job
// applies.
func TestInstallTweak(t *testing.T) {
	defer func() { bench.Tweak = nil }()

	bench.Tweak = nil
	if err := installTweak(-1, "", ""); err != nil {
		t.Fatalf("no flags: %v", err)
	}
	if bench.Tweak != nil {
		t.Fatal("no flags installed a Tweak hook")
	}

	for _, bad := range []struct{ strided, iov string }{
		{"bogus", ""},
		{"", "bogus"},
		{"", "strided"}, // not a method name at all
	} {
		bench.Tweak = nil
		if err := installTweak(-1, bad.strided, bad.iov); err == nil {
			t.Errorf("installTweak(-1, %q, %q) accepted an unknown method",
				bad.strided, bad.iov)
		}
		if bench.Tweak != nil {
			t.Errorf("failed installTweak(%q, %q) still installed a hook",
				bad.strided, bad.iov)
		}
	}

	bench.Tweak = nil
	if err := installTweak(16, "batched", "conservative"); err != nil {
		t.Fatal(err)
	}
	if bench.Tweak == nil {
		t.Fatal("valid flags installed no Tweak hook")
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.BatchSize != 16 {
		t.Errorf("BatchSize = %d, want 16", opt.BatchSize)
	}
	if opt.StridedMethod != armcimpi.MethodBatched {
		t.Errorf("StridedMethod = %s, want batched", opt.StridedMethod)
	}
	if opt.IOVMethod != armcimpi.MethodConservative {
		t.Errorf("IOVMethod = %s, want conservative", opt.IOVMethod)
	}

	// A partial tweak leaves the other knobs at their defaults.
	def := armcimpi.DefaultOptions()
	if err := installTweak(-1, "iov-direct", ""); err != nil {
		t.Fatal(err)
	}
	opt = armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.StridedMethod != armcimpi.MethodIOVDirect {
		t.Errorf("StridedMethod = %s, want iov-direct", opt.StridedMethod)
	}
	if opt.IOVMethod != def.IOVMethod || opt.BatchSize != def.BatchSize {
		t.Errorf("partial tweak disturbed other options: iov=%s batch=%d",
			opt.IOVMethod, opt.BatchSize)
	}
}

// TestTweakReachesDartRemoteTier asserts the -strided-method and
// -iov-method flags flow through the shared Options into dartmpi's
// routing decisions: the wire tier of the locality runtime must compile
// with the method the flag selected, since both runtimes now resolve
// methods through the one engine decision layer.
func TestTweakReachesDartRemoteTier(t *testing.T) {
	defer func() { bench.Tweak = nil }()
	if err := installTweak(-1, "conservative", "batched"); err != nil {
		t.Fatal(err)
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)

	j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplDartMPI, opt)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Eng.Run(4, func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(4096)
		if err != nil {
			t.Error(err)
			return
		}
		local := rt.MallocLocal(4096)
		if rt.Rank() == 1 {
			pr := rt.(interface {
				RouteOf(armcimpi.RouteRequest) armcimpi.RouteDecision
			})
			d := pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassPut, Shape: armcimpi.ShapeStrided,
				Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodConservative {
				t.Errorf("remote strided: route=%s method=%s, want rma/conservative",
					d.Route, d.Method)
			}
			d = pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassGet, Shape: armcimpi.ShapeIOV,
				Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodBatched {
				t.Errorf("remote IOV: route=%s method=%s, want rma/batched",
					d.Route, d.Method)
			}
		}
		rt.Barrier()
		if err := rt.FreeLocal(local); err != nil {
			t.Error(err)
		}
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
