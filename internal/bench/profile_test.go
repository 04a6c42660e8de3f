package bench

import (
	"bytes"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// profWorkload is a mixed ARMCI workload on 4 ranks of the test
// platform (2 cores/node, so ranks 0-1 and 2-3 share nodes): it
// exercises contiguous, strided, and vector transfers, nonblocking
// variants, and read-modify-write, over both intra-node (shm-eligible)
// and inter-node targets.
func profWorkload(t *testing.T, rt armci.Runtime) {
	me := rt.Rank()
	addrs, err := rt.Malloc(8192)
	if err != nil {
		t.Errorf("Malloc: %v", err)
		return
	}
	local := rt.MallocLocal(8192)
	if me == 0 {
		// Inter-node contiguous ops (rank 2 is on the other node).
		must(t, rt.Put(local, addrs[2], 2048))
		must(t, rt.Get(addrs[2], local, 1024))
		must(t, rt.Acc(armci.AccDbl, 2, local, addrs[2], 512))
		// Intra-node ops (rank 1 shares node 0).
		must(t, rt.Put(local, addrs[1], 2048))
		must(t, rt.Get(addrs[1], local, 1024))
		// Strided put to the far node: 8 segments of 64 bytes.
		s := &armci.Strided{
			Src: local, Dst: addrs[3],
			SrcStride: []int{64}, DstStride: []int{128},
			Count: []int{64, 8},
		}
		must(t, rt.PutS(s))
		s.Src, s.Dst = addrs[3], local
		must(t, rt.GetS(s))
		// Vector get from the near rank.
		iov := []armci.GIOV{{
			Src:   []armci.Addr{addrs[1], addrs[1].Add(512)},
			Dst:   []armci.Addr{local, local.Add(512)},
			Bytes: 256,
		}}
		must(t, rt.GetV(iov, 1))
	}
	if me == 3 {
		// Nonblocking fan-out from the far node.
		h1, err := rt.NbPut(local, addrs[0], 1024)
		must(t, err)
		h2, err := rt.NbGet(addrs[1], local, 1024)
		must(t, err)
		h1.Wait()
		h2.Wait()
		rt.AllFence()
	}
	rt.Barrier()
	// Every rank hammers one counter with atomic RMW.
	if _, err := rt.Rmw(armci.FetchAndAdd, addrs[0], int64(me+1)); err != nil {
		t.Errorf("Rmw: %v", err)
	}
	rt.Barrier()
	must(t, rt.Free(addrs[me]))
}

// profRun executes profWorkload under impl/opt with a profiling
// recorder attached and returns the recorder.
func profRun(t *testing.T, impl harness.Impl, opt armcimpi.Options) *obs.Recorder {
	t.Helper()
	rec := obs.New(obs.Options{Profile: true})
	if _, err := harness.RunObs(harness.TestPlatform(), 4, impl, opt, rec, func(j *harness.Job, p *sim.Proc) error {
		profWorkload(t, j.Runtime(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// profConfigs enumerates the runtime configurations the profiler must
// hold its invariants on: the paper's MPI-2 design and the MPI-3
// extension, each with the shm fast path on and off, the two-sided
// data-server baseline, and the dartmpi locality runtime across shm
// on/off x leader-staging on/off (the staged configurations lower the
// threshold so the workload's cross-node transfers exercise the
// leader.queue/leader.copy phases).
func profConfigs() []struct {
	name string
	impl harness.Impl
	opt  armcimpi.Options
} {
	mpi2 := armcimpi.DefaultOptions()
	mpi2noshm := mpi2
	mpi2noshm.NoShm = true
	mpi3 := mpi2
	mpi3.UseMPI3 = true
	mpi3noshm := mpi3
	mpi3noshm.NoShm = true
	dart := armcimpi.DefaultOptions()
	dart.StageThreshold = 512
	dartNostage := armcimpi.DefaultOptions()
	dartNostage.NoLeaderStaging = true
	dartNoshm := dart
	dartNoshm.NoShm = true
	dartNoshmNostage := dartNostage
	dartNoshmNostage.NoShm = true
	return []struct {
		name string
		impl harness.Impl
		opt  armcimpi.Options
	}{
		{"mpi2-shm", harness.ImplARMCIMPI, mpi2},
		{"mpi2-noshm", harness.ImplARMCIMPI, mpi2noshm},
		{"mpi3-shm", harness.ImplARMCIMPI, mpi3},
		{"mpi3-noshm", harness.ImplARMCIMPI, mpi3noshm},
		{"dataserver", harness.ImplDataServer, armcimpi.DefaultOptions()},
		{"dart-shm-stage", harness.ImplDartMPI, dart},
		{"dart-shm-nostage", harness.ImplDartMPI, dartNostage},
		{"dart-noshm-stage", harness.ImplDartMPI, dartNoshm},
		{"dart-noshm-nostage", harness.ImplDartMPI, dartNoshmNostage},
	}
}

// TestProfilePhaseSumsMatchLatency asserts the profiler's central
// invariant: for every operation class, the per-phase virtual times
// (including the residual "other" bucket) sum exactly to the total
// attributed operation time, and the totals are nonzero for the ops
// the workload issued.
func TestProfilePhaseSumsMatchLatency(t *testing.T) {
	for _, cfg := range profConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			pr := profRun(t, cfg.impl, cfg.opt).Prof()
			sawOps := 0
			for op := profile.Op(0); op < profile.NumOps; op++ {
				var total, phases, calls int64
				for _, h := range pr.TotalHists(op) {
					total += h.SumNs
					calls += h.Count
				}
				for ph := profile.Phase(0); ph < profile.NumPhases; ph++ {
					for _, h := range pr.PhaseHists(op, ph) {
						phases += h.SumNs
					}
				}
				if calls > 0 {
					sawOps++
					if total <= 0 {
						t.Errorf("%s: %d calls but zero total time", op, calls)
					}
				}
				if phases != total {
					t.Errorf("%s: phase sum %d ns != total %d ns", op, phases, total)
				}
			}
			if sawOps < 5 {
				t.Errorf("only %d op classes recorded; workload should hit at least put/get/acc/puts/rmw", sawOps)
			}
		})
	}
}

// TestProfileLeaderPhasesAttributed pins the new leader.* phases to the
// hierarchical path: with staging on (low threshold) the workload's
// cross-node transfers from non-leader ranks must attribute leader.copy
// time, and with staging off the leader phases must stay empty.
func TestProfileLeaderPhasesAttributed(t *testing.T) {
	staged := armcimpi.DefaultOptions()
	staged.StageThreshold = 512
	pr := profRun(t, harness.ImplDartMPI, staged).Prof()
	var copyNs int64
	for op := profile.Op(0); op < profile.NumOps; op++ {
		for _, h := range pr.PhaseHists(op, profile.PhaseLeaderCopy) {
			copyNs += h.SumNs
		}
	}
	if copyNs == 0 {
		t.Error("staging enabled but no leader.copy time attributed")
	}

	nostage := armcimpi.DefaultOptions()
	nostage.NoLeaderStaging = true
	pr = profRun(t, harness.ImplDartMPI, nostage).Prof()
	for op := profile.Op(0); op < profile.NumOps; op++ {
		for _, ph := range []profile.Phase{profile.PhaseLeaderQueue, profile.PhaseLeaderCopy} {
			for _, h := range pr.PhaseHists(op, ph) {
				if h.SumNs != 0 {
					t.Errorf("%s/%s attributed %d ns with staging disabled", op, ph, h.SumNs)
				}
			}
		}
	}
}

// TestProfileTotalMatchesMeasuredLatency pins the attributed total of a
// single blocking operation to the caller's own virtual-time
// measurement around the call — the profiler must account for exactly
// the operation's latency, no more, no less.
func TestProfileTotalMatchesMeasuredLatency(t *testing.T) {
	rec := obs.New(obs.Options{Profile: true})
	var elapsed sim.Time
	if _, err := harness.RunObs(harness.TestPlatform(), 4, harness.ImplARMCIMPI, armcimpi.DefaultOptions(), rec, func(j *harness.Job, p *sim.Proc) error {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(4096)
		must(t, err)
		if rt.Rank() == 0 {
			local := rt.MallocLocal(4096)
			t0 := rt.Proc().Now()
			must(t, rt.Put(local, addrs[2], 4096)) // inter-node, blocking
			elapsed = rt.Proc().Now() - t0
		}
		rt.Barrier()
		return rt.Free(addrs[rt.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	hists := rec.Prof().TotalHists(profile.OpPut)
	if len(hists) == 0 || hists[0].Count != 1 {
		t.Fatalf("expected exactly one put on rank 0, got %+v", hists)
	}
	if got := sim.Time(hists[0].SumNs); got != elapsed {
		t.Errorf("attributed put time %d ns != measured latency %d ns", got, elapsed)
	}
}

// TestProfileCommMatrixConservation checks flow conservation on the
// communication matrix for every runtime configuration: each
// (src,dst,class,route) cell must have sent exactly what was received,
// and for the ARMCI-MPI runtimes the matrix data-op totals must equal
// the independently maintained rma.bytes.* counters.
func TestProfileCommMatrixConservation(t *testing.T) {
	for _, cfg := range profConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			rec := profRun(t, cfg.impl, cfg.opt)
			cells := rec.Prof().Cells()
			if len(cells) == 0 {
				t.Fatal("empty communication matrix")
			}
			var rmaBytes, shmBytes int64
			for _, c := range cells {
				if c.SentMsgs != c.RecvMsgs || c.SentBytes != c.RecvBytes {
					t.Errorf("cell %d->%d %s/%s: sent %d msgs/%d bytes, received %d msgs/%d bytes",
						c.Src, c.Dst, c.Class, c.Route, c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes)
				}
				if c.Class == profile.MsgAmo {
					continue // RMW payloads are not counted in rma.bytes.*
				}
				switch c.Route {
				case profile.RouteRMA:
					rmaBytes += c.SentBytes
				case profile.RouteShm:
					shmBytes += c.SentBytes
				}
			}
			if cfg.impl != harness.ImplARMCIMPI {
				return // the data server does not maintain rma.bytes.*
			}
			m := rec.Stats()
			var wantRMA, wantShm int64
			for _, v := range m.Counters[obs.CBytesContig] {
				wantRMA += v
			}
			for _, v := range m.Counters[obs.CBytesPacked] {
				wantRMA += v
			}
			for _, v := range m.Counters[obs.CBytesShm] {
				wantShm += v
			}
			if rmaBytes != wantRMA {
				t.Errorf("matrix RMA bytes %d != rma.bytes.contig+packed %d", rmaBytes, wantRMA)
			}
			if shmBytes != wantShm {
				t.Errorf("matrix shm bytes %d != rma.bytes.shm %d", shmBytes, wantShm)
			}
		})
	}
}

// TestProfileReportDeterministic requires the text report and the JSON
// export to be byte-identical across two independent runs of the same
// configuration — the property the PROF_* CI artifact guard rests on.
func TestProfileReportDeterministic(t *testing.T) {
	build := func() (report, js []byte) {
		pr := profRun(t, harness.ImplARMCIMPI, armcimpi.DefaultOptions()).Prof()
		var rb, jb bytes.Buffer
		if err := pr.Report().WriteText(&rb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := pr.WriteJSON(&jb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return rb.Bytes(), jb.Bytes()
	}
	r1, j1 := build()
	r2, j2 := build()
	if !bytes.Equal(r1, r2) {
		t.Errorf("text report differs between identical runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("profile JSON differs between identical runs:\n%s\n---\n%s", j1, j2)
	}
	if len(j1) == 0 || j1[len(j1)-1] != '\n' {
		t.Error("profile JSON missing trailing newline")
	}
}

// TestProfileDoesNotPerturbFigures runs a figure sweep with and
// without the profiler attached and requires byte-identical figure
// JSON: attribution is pure observation and must not move any virtual
// timestamp.
func TestProfileDoesNotPerturbFigures(t *testing.T) {
	build := func(rec *obs.Recorder) []byte {
		cfg := Fig3Config{MinExp: 3, MaxExp: 10, Iters: 2, Obs: rec}
		fig := &Figure{Name: "prof-perturb", Title: "check", XLabel: "x", YLabel: "GB/s"}
		for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
			s, err := fig3Probe(harness.TestPlatform(), harness.ImplARMCIMPI, op, cfg).curve()
			if err != nil {
				t.Fatalf("fig3Probe(%s): %v", op, err)
			}
			fig.Series = append(fig.Series, s)
		}
		var b bytes.Buffer
		if err := fig.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain := build(nil)
	profiled := build(obs.New(obs.Options{Profile: true}))
	if !bytes.Equal(plain, profiled) {
		t.Errorf("figure JSON changed when the profiler was attached:\n%s\n---\n%s", plain, profiled)
	}
}
