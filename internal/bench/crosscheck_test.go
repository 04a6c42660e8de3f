package bench

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/platform"
)

// TestInstrumentsAgree cross-checks the four instruments on what they
// each measure independently: the metrics registry's byte counters,
// the route decisions, both sides of the profiler's communication
// matrix, both link-busy accounts, the profiler's phase sums against
// the critical-path report's flat column, and the critical path
// against the makespan. Fig. 3 and Fig. 4 (quick) on all four
// platforms, and the locality ablation, which adds the shared-memory,
// leader-staged and data-server routes.
func TestInstrumentsAgree(t *testing.T) {
	type sweep struct {
		name string
		run  func(rec *obs.Recorder) error
		ds   bool // a data-server job is among the sweep's
	}
	var sweeps []sweep
	for _, p := range platform.All() {
		sweeps = append(sweeps,
			sweep{name: "fig3 " + p.Name, run: func(rec *obs.Recorder) error {
				cfg := QuickFig3()
				cfg.Obs = rec
				_, err := Fig3(p, cfg)
				return err
			}},
			sweep{name: "fig4 " + p.Name, run: func(rec *obs.Recorder) error {
				cfg := QuickFig4()
				cfg.Obs = rec
				for _, seg := range cfg.SegSizes {
					for _, op := range []ContigOp{OpGet, OpAcc, OpPut} {
						if _, err := Fig4(p, op, seg, cfg); err != nil {
							return err
						}
					}
				}
				return nil
			}})
	}
	sweeps = append(sweeps, sweep{name: "ablation-locality ib", ds: true, run: func(rec *obs.Recorder) error {
		cfg := QuickLocalityAblation()
		cfg.Obs = rec
		_, err := AblationLocality(platform.Get(platform.InfiniBand), cfg)
		return err
	}})

	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			rec := obs.New(obs.Options{Profile: true, CritPath: true})
			if err := sw.run(rec); err != nil {
				t.Fatal(err)
			}
			stats, prof, crit := rec.Stats(), rec.Prof().Report(), rec.Crit().Report()
			count := func(name string) int64 { return obs.Total(stats.Counters[name]) }
			sent, recv := map[profile.Route]int64{}, map[profile.Route]int64{}
			for _, c := range prof.Matrix {
				if c.Class == profile.MsgAmo {
					continue // eight bytes of control: no payload counter has them
				}
				sent[c.Route] += c.SentBytes
				recv[c.Route] += c.RecvBytes
			}

			// Bytes over the wire: what the RMA layer moved, what the
			// routing layer sent to the wire tiers (a leader-staged
			// transfer crosses the wire once, after its staging copy), and
			// both sides of the matrix.
			wire := count(obs.CBytesContig) + count(obs.CBytesPacked)
			if wire == 0 {
				t.Fatal("the sweep moved no bytes over the wire")
			}
			if routed := count(obs.CRouteRMABytes) + count(obs.CRouteStagedBytes); routed != wire || sent[profile.RouteRMA] != wire || recv[profile.RouteRMA] != wire {
				t.Errorf("wire bytes: rma.bytes %d, route.{rma,staged} %d, matrix sent %d received %d", wire, routed, sent[profile.RouteRMA], recv[profile.RouteRMA])
			}
			if staged, copied := count(obs.CRouteStagedBytes), count(obs.CDartStagedBytes); staged != copied {
				t.Errorf("leader staging: %d bytes decided, %d bytes copied", staged, copied)
			}
			// Bytes through shared segments: the RMA layer's count is the
			// same-node tier's (no sweep here routes to self). The matrix
			// holds more when a data server ran: its node-local copies are
			// shm-route cells too, and it has neither RMA counters nor
			// route decisions — its traffic is in the matrix alone.
			shm := count(obs.CBytesShm)
			if node := count(obs.CRouteNodeBytes) + count(obs.CRouteSelfBytes); node != shm {
				t.Errorf("shm bytes: rma.bytes.shm %d, route.{node,self} %d", shm, node)
			}
			if sw.ds && (sent[profile.RouteShm] <= shm || sent[profile.RouteDS] == 0) || !sw.ds && (sent[profile.RouteShm] != shm || sent[profile.RouteDS] != 0) {
				t.Errorf("matrix: shm %d (rma.bytes.shm %d), ds %d", sent[profile.RouteShm], shm, sent[profile.RouteDS])
			}
			for route := range sent {
				if sent[route] != recv[route] {
					t.Errorf("matrix route %s: %d bytes sent, %d received", route, sent[route], recv[route])
				}
			}

			// Link busy time: the registry's and the profiler's accounts,
			// node by node; and no NIC is busier than the jobs are long.
			var span int64
			for _, j := range crit.Jobs {
				span += int64(j.Makespan)
				if j.PathNs != j.Makespan {
					t.Errorf("job %s: critical path %d ns, makespan %d ns", j.Label, j.PathNs, j.Makespan)
				}
			}
			if len(prof.Links) == 0 || len(crit.Jobs) == 0 {
				t.Fatal("no link or job records")
			}
			for _, l := range prof.Links {
				if l.Node >= len(stats.LinkBusyNs) || int64(stats.LinkBusyNs[l.Node]) != l.BusyNs {
					t.Errorf("node %d link busy: profiler %d ns, registry %v", l.Node, l.BusyNs, stats.LinkBusyNs)
				}
				if l.BusyNs > span {
					t.Errorf("node %d NIC busy %d ns of %d ns of jobs", l.Node, l.BusyNs, span)
				}
			}

			// Flat attribution: the critical-path report's flat column is
			// the profiler's phase sums.
			flat := map[string]int64{}
			for _, op := range prof.Ops {
				for _, ph := range op.Phases {
					flat[ph.Phase] += ph.Hist.SumNs
				}
			}
			for _, ph := range crit.Phases {
				if ph.FlatNs != flat[ph.Phase] {
					t.Errorf("phase %s: flat %d ns in the critical-path report, %d ns in the profile", ph.Phase, ph.FlatNs, flat[ph.Phase])
				}
				delete(flat, ph.Phase)
			}
			for ph, ns := range flat {
				if ns != 0 {
					t.Errorf("phase %s: %d ns in the profile, absent from the critical-path report", ph, ns)
				}
			}
		})
	}
}
