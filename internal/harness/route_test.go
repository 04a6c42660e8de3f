package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// routeProber is the diagnostic probe every engine-backed runtime
// exposes: armcimpi.Runtime directly, dartmpi.Runtime by promotion
// from the embedded engine. RouteOf consults the installed RoutePolicy
// without counting, so probing leaves the job's metrics untouched.
type routeProber interface {
	RouteOf(armcimpi.RouteRequest) armcimpi.RouteDecision
}

// TestRouteDecisionTable pins the full routing decision table of both
// engine-backed runtimes against a golden file: op class x shape x
// size x placement (self / same-node / remote) x ablation options.
// The probe runs on rank 1 — a non-leader core, so leader staging is
// eligible — of the test platform's 2-core nodes (rank 0 shares the
// node, rank 2 is one node over). Regenerate with
//
//	go test ./internal/harness -run TestRouteDecisionTable -update
func TestRouteDecisionTable(t *testing.T) {
	classes := []struct {
		c    armcimpi.OpClass
		name string
	}{
		{armcimpi.ClassPut, "put"},
		{armcimpi.ClassGet, "get"},
		{armcimpi.ClassAcc, "acc"},
	}
	shapes := []armcimpi.Shape{armcimpi.ShapeContig, armcimpi.ShapeStrided, armcimpi.ShapeIOV}
	sizes := []struct {
		n    int
		name string
	}{{1024, "1KiB"}, {64 * 1024, "64KiB"}}
	placements := []struct {
		target int
		name   string
	}{{1, "self"}, {0, "node"}, {2, "remote"}}
	optCases := []struct {
		name string
		mod  func(*armcimpi.Options)
	}{
		{"default", func(*armcimpi.Options) {}},
		{"noshm", func(o *armcimpi.Options) { o.NoShm = true }},
		{"noleaderstaging", func(o *armcimpi.Options) { o.NoLeaderStaging = true }},
	}

	var lines []string
	for _, impl := range []Impl{ImplARMCIMPI, ImplDartMPI} {
		for _, oc := range optCases {
			opt := armcimpi.DefaultOptions()
			oc.mod(&opt)
			j, err := NewJob(TestPlatform(), 4, impl, opt)
			if err != nil {
				t.Fatal(err)
			}
			var chunk []string
			err = j.Eng.Run(4, func(p *sim.Proc) {
				rt := j.Runtime(p)
				if rt.Rank() == 1 {
					pr, ok := rt.(routeProber)
					if !ok {
						t.Errorf("%s runtime does not expose RouteOf", impl)
						return
					}
					for _, cl := range classes {
						for _, sh := range shapes {
							for _, sz := range sizes {
								for _, pl := range placements {
									d := pr.RouteOf(armcimpi.RouteRequest{
										Class: cl.c, Shape: sh,
										Target: pl.target, Bytes: sz.n,
									})
									chunk = append(chunk, fmt.Sprintf(
										"%-9s %-15s %s %-7s %-5s %-6s -> %-10s method=%s",
										impl, oc.name, cl.name, sh, sz.name, pl.name,
										d.Route, d.Method))
								}
							}
						}
					}
				}
				rt.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, chunk...)
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "route_decisions.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gotL := strings.Split(got, "\n")
		wantL := strings.Split(string(want), "\n")
		n := 0
		for i := 0; i < len(gotL) && i < len(wantL); i++ {
			if gotL[i] != wantL[i] && n < 8 {
				t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, gotL[i], wantL[i])
				n++
			}
		}
		if len(gotL) != len(wantL) {
			t.Errorf("line count %d, want %d", len(gotL), len(wantL))
		}
		t.Fatalf("route decision table drifted from %s (rerun with -update after auditing)", golden)
	}
}

// TestRouteCountersSingleDecisionPoint asserts the route.* counters are
// emitted once per operation from the engine's single RoutePolicy call
// site, for both runtimes, and that the staged-decision count equals
// the staging events the executor modeled (one staging hop per
// RouteStagedRMA decision).
func TestRouteCountersSingleDecisionPoint(t *testing.T) {
	m := runDart(t, armcimpi.DefaultOptions()).Stats()
	for _, c := range []string{obs.CRouteSelf, obs.CRouteNode, obs.CRouteRMA, obs.CRouteStaged} {
		if obs.Total(m.Counters[c]) == 0 {
			t.Errorf("dartmpi emitted no %s", c)
		}
	}
	if staged, events := obs.Total(m.Counters[obs.CRouteStaged]), obs.Total(m.Counters[obs.CDartStaged]); staged != events {
		t.Errorf("route.staged.ops %d != dart.leader.staged %d", staged, events)
	}

	// armci-mpi routes through the same decision point: near decisions
	// are annotations (the shm fast path lives in the MPI layer), but
	// the counters still classify every operation.
	rec2 := obs.New(obs.Options{})
	j2, err := NewJobObs(TestPlatform(), 4, ImplARMCIMPI, armcimpi.DefaultOptions(), rec2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Eng.Run(4, func(p *sim.Proc) { dartWorkload(t, j2.Runtime(p)) }); err != nil {
		t.Fatal(err)
	}
	m2 := rec2.Stats()
	for _, c := range []string{obs.CRouteSelf, obs.CRouteNode, obs.CRouteRMA} {
		if obs.Total(m2.Counters[c]) == 0 {
			t.Errorf("armci-mpi emitted no %s", c)
		}
	}
	if staged := obs.Total(m2.Counters[obs.CRouteStaged]); staged != 0 {
		t.Errorf("armci-mpi made %d staged-RMA decisions, want 0", staged)
	}
}

// TestDartAccPrescaleNoLeak drives scaled accumulates through every
// tier — self and same-node (the engine's node-epoch prescale), remote
// direct, and remote per-segment — and asserts the prescale
// temporaries and staging state leak nothing: the rank's address-space
// region count returns to its post-allocation baseline, and teardown
// empties the GMR table.
func TestDartAccPrescaleNoLeak(t *testing.T) {
	j, err := NewJob(TestPlatform(), 4, ImplDartMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = j.Eng.Run(4, func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(64 * 1024)
		must(t, err)
		local := rt.MallocLocal(32 * 1024)
		baseline := j.M.Space(rt.Rank()).Len()
		if rt.Rank() == 1 {
			// Contiguous scaled accumulates on all three tiers (node-epoch
			// prescale for self and same-node, engine prescale for remote;
			// 16 KiB to the remote tier also exercises prescale under
			// leader staging).
			must(t, rt.Acc(armci.AccDbl, 2, local, addrs[1].Add(0), 4096))
			must(t, rt.Acc(armci.AccDbl, 2, local, addrs[0].Add(0), 4096))
			must(t, rt.Acc(armci.AccDbl, 2, local, addrs[2].Add(0), 16*1024))
			// A strided scaled accumulate against a near target re-enters
			// per segment (each segment prescales on the node tier).
			s := &armci.Strided{
				Src: local, Dst: addrs[0].Add(8192),
				SrcStride: []int{512}, DstStride: []int{512},
				Count: []int{256, 4},
			}
			must(t, rt.AccS(armci.AccDbl, 2, s))
			// And against the far target, where the wire plan prescales
			// per datatype.
			s2 := &armci.Strided{
				Src: local, Dst: addrs[2].Add(8192),
				SrcStride: []int{512}, DstStride: []int{512},
				Count: []int{256, 4},
			}
			must(t, rt.AccS(armci.AccDbl, 2, s2))
		}
		rt.Barrier()
		if got := j.M.Space(rt.Rank()).Len(); got != baseline {
			t.Errorf("rank %d: %d regions after scaled accumulates, want %d (prescale temporary leaked)",
				rt.Rank(), got, baseline)
		}
		must(t, rt.FreeLocal(local))
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := j.AMWorld.NumGMRs(); n != 0 {
		t.Errorf("%d GMRs leaked", n)
	}
}
