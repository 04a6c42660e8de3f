package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/conflicttree"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

// driver times calls into one layer's public functions, so a layer has
// a host-cost number of its own, reported under the workload whose
// layer it isolates. run makes one short repeat; the child reports the
// median of driverRepeats, fewer when the repeats outlast driverBudget
// (the 512- and 4096-rank constructions take seconds each).
type driver struct {
	name string
	run  func(smoke bool) (float64, error)
}

const (
	driverRepeats = 5
	driverBudget  = 2 * time.Second
)

func childDrivers(w *workload, c childArgs) (childOut, error) {
	out := childOut{Layer: map[string]float64{}}
	m := &meter{trace: c.spans}
	for _, d := range w.drivers {
		t0 := time.Now()
		var runs []float64
		for len(runs) == 0 || len(runs) < driverRepeats && time.Since(t0) < driverBudget {
			v, err := d.run(c.smoke)
			if err != nil {
				return out, fmt.Errorf("driver %s: %w", d.name, err)
			}
			runs = append(runs, v)
		}
		m.span("driver "+d.name, t0, time.Since(t0))
		out.Layer[d.name] = median(runs)
	}
	if one, ok := out.Layer["sim.exchange_events_per_s.shards1"]; ok {
		out.Layer["sim.shard_speedup"] = out.Layer["sim.exchange_events_per_s.shardsN"] / one
	}
	out.Spans = m.spans
	return out, nil
}

// sized picks the full or the smoke size of a driver loop.
func sized(smoke bool, full, quick int) int {
	if smoke {
		return quick
	}
	return full
}

// twoNodes is the test platform with one core per node, so ranks 0 and
// 1 sit on different nodes and every runtime takes its remote path.
func twoNodes() *platform.Platform {
	p := harness.TestPlatform()
	p.CoresPerNode = 1
	return p
}

// issueNs times 8-byte blocking operations from rank 0 to rank 1 and
// returns host ns per operation. Rank 1 waits in a barrier, so the
// timed region holds only the issuing stack.
func issueNs(impl harness.Impl, op func(rt armci.Runtime, local, remote armci.Addr) error) func(bool) (float64, error) {
	return func(smoke bool) (float64, error) {
		nops := sized(smoke, 2000, 20)
		var d time.Duration
		var opErr error
		_, err := harness.Run(twoNodes(), 2, impl, armcimpi.DefaultOptions(), func(rt armci.Runtime) {
			addrs, err := rt.Malloc(8)
			if err != nil {
				opErr = err
				return
			}
			local := rt.MallocLocal(8)
			rt.Barrier()
			if rt.Rank() == 0 {
				t0 := time.Now()
				for i := 0; i < nops && opErr == nil; i++ {
					opErr = op(rt, local, addrs[1])
				}
				d = time.Since(t0)
			}
			rt.Barrier()
			if err := rt.Free(addrs[rt.Rank()]); err != nil {
				opErr = err
			}
		})
		if err == nil {
			err = opErr
		}
		return float64(d.Nanoseconds()) / float64(nops), err
	}
}

func put(rt armci.Runtime, local, remote armci.Addr) error { return rt.Put(local, remote, 8) }
func get(rt armci.Runtime, local, remote armci.Addr) error { return rt.Get(remote, local, 8) }
func acc(rt armci.Runtime, local, remote armci.Addr) error {
	return rt.Acc(armci.AccDbl, 1.0, local, remote, 8)
}

var contigDrivers = []driver{
	{"armcimpi.put_issue_ns", issueNs(harness.ImplARMCIMPI, put)},
	{"native.put_issue_ns", issueNs(harness.ImplNative, put)},
	{"dataserver.put_issue_ns", issueNs(harness.ImplDataServer, put)},
	{"dartmpi.put_issue_ns", issueNs(harness.ImplDartMPI, put)},
	{"armcimpi.get_issue_ns", issueNs(harness.ImplARMCIMPI, get)},
	{"armcimpi.acc_issue_ns", issueNs(harness.ImplARMCIMPI, acc)},
}

var stridedDrivers = []driver{
	{"armcimpi.strided_issue_ns", func(smoke bool) (float64, error) {
		nops := sized(smoke, 400, 10)
		d, err := bench.WallclockStridedIssue(harness.TestPlatform(), nops, 64, 64)
		return float64(d.Nanoseconds()) / float64(nops), err
	}},
	{"armcimpi.iov_issue_ns", func(smoke bool) (float64, error) {
		nops := sized(smoke, 400, 10)
		d, err := bench.WallclockIOVIssue(harness.TestPlatform(), nops, 64, 64)
		return float64(d.Nanoseconds()) / float64(nops), err
	}},
	{"mpi.pack_mb_per_s", func(smoke bool) (float64, error) {
		iters := sized(smoke, 4000, 10)
		t := bench.WallclockPackType(256, 128)
		d := bench.WallclockPackRoundtrip(t, make([]byte, t.Span()), make([]byte, t.Size()), iters)
		return float64(2*t.Size()*iters) / 1e6 / d.Seconds(), nil
	}},
	{"conflicttree.insert_ns", func(smoke bool) (float64, error) {
		n := sized(smoke, 1<<16, 1<<8)
		var t conflicttree.Tree
		t0 := time.Now()
		for i := 0; i < n; i++ {
			// Disjoint 64-byte ranges in a scattered order.
			lo := int64(i*7919%n) * 128
			if !t.Insert(lo, lo+64) {
				return 0, fmt.Errorf("range %d rejected", i)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}},
	{"armci.to_giov_ns", func(smoke bool) (float64, error) {
		iters := sized(smoke, 2000, 10)
		s := &armci.Strided{SrcStride: []int{128}, DstStride: []int{256}, Count: []int{128, 256}}
		t0 := time.Now()
		segs := 0
		for i := 0; i < iters; i++ {
			g := s.ToGIOV()
			segs += g.Len()
		}
		if segs != 256*iters {
			return 0, fmt.Errorf("%d segments, want %d", segs, 256*iters)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(iters), nil
	}},
}

// jobNs builds an ARMCI-MPI job of n ranks on plat, runs body on every
// rank, and returns the host ns of construction plus run.
func jobNs(plat *platform.Platform, n int, body func(j *harness.Job, p *sim.Proc) error) (float64, error) {
	t0 := time.Now()
	j, err := harness.NewJob(plat, n, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
	if err != nil {
		return 0, err
	}
	var bodyErr error
	err = j.Eng.Run(n, func(p *sim.Proc) {
		if err := body(j, p); err != nil {
			bodyErr = err
		}
	})
	if err == nil {
		err = bodyErr
	}
	return float64(time.Since(t0).Nanoseconds()), err
}

// allgatherNs is host ns per rank per allgather, timed on rank 0 from
// a barrier to its last allgather's return: the ranks run one at a
// time on the host, so that interval holds every rank's share.
func allgatherNs(n, rounds int) func(bool) (float64, error) {
	return func(smoke bool) (float64, error) {
		n, rounds := sized(smoke, n, 16), sized(smoke, rounds, 2)
		var d time.Duration
		_, err := jobNs(platform.Get(platform.InfiniBand), n, func(j *harness.Job, p *sim.Proc) error {
			c := j.MpiWorld.Rank(p).CommWorld()
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				c.AllgatherI64([]int64{int64(p.ID())})
			}
			if p.ID() == 0 {
				d = time.Since(t0)
			}
			return nil
		})
		return float64(d.Nanoseconds()) / float64(rounds*n), err
	}
}

// constructNs is host ns per rank to build a job and take it through
// one collective Malloc, Barrier and Free.
func constructNs(platName string, n int) func(bool) (float64, error) {
	return func(smoke bool) (float64, error) {
		n := sized(smoke, n, 16)
		ns, err := jobNs(platform.Get(platName), n, func(j *harness.Job, p *sim.Proc) error {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(64)
			if err != nil {
				return err
			}
			rt.Barrier()
			return rt.Free(addrs[rt.Rank()])
		})
		return ns / float64(n), err
	}
}

var ccsdDrivers = []driver{
	{"sim.elapse_ns", func(smoke bool) (float64, error) {
		events, d, err := bench.WallclockEvents(sized(smoke, 256, 16), sized(smoke, 400, 10))
		return float64(d.Nanoseconds()) / float64(events), err
	}},
	{"mpi.allgather_ns_per_rank.n128", allgatherNs(128, 8)},
	{"mpi.allgather_ns_per_rank.n512", allgatherNs(512, 2)},
	{"harness.construct_ns_per_rank.n128", constructNs(platform.InfiniBand, 128)},
	{"harness.construct_ns_per_rank.n512", constructNs(platform.InfiniBand, 512)},
	{"ga.fanout_ns_per_owner", func(smoke bool) (float64, error) {
		// Rank 0 puts one patch spanning owners 1..k of a 1-D array,
		// the fan-out shape of the GA layer.
		n, iters := sized(smoke, 64, 8), sized(smoke, 20, 2)
		k, blk := n/2, 512
		var d time.Duration
		_, err := jobNs(platform.Get(platform.InfiniBand), n, func(j *harness.Job, p *sim.Proc) error {
			env := ga.NewEnv(j.Runtime(p), j.MpiWorld.Rank(p))
			a, err := env.Create("fanout", ga.F64, []int{n * blk})
			if err != nil {
				return err
			}
			env.Sync()
			if env.Me() == 0 {
				vals := make([]float64, k*blk)
				t0 := time.Now()
				for i := 0; i < iters && err == nil; i++ {
					err = a.Put([]int{blk}, []int{blk*(1+k) - 1}, vals)
				}
				d = time.Since(t0)
			}
			env.Sync()
			if derr := a.Destroy(); err == nil {
				err = derr
			}
			return err
		})
		return float64(d.Nanoseconds()) / float64(iters*k), err
	}},
}

// exchangeRate is dispatched events per host second of the 16k-rank
// cross-node exchange on the sharded engine.
func exchangeRate(shards int) func(bool) (float64, error) {
	return func(smoke bool) (float64, error) {
		st, d, err := bench.ParallelScaleRun(sized(smoke, 16384, 256), sized(smoke, 4, 2), shards)
		return float64(st.Events) / d.Seconds(), err
	}
}

var scaleDrivers = []driver{
	{"harness.construct_ns_per_rank.n4096", constructNs(platform.CrayXT5, 4096)},
	{"sim.exchange_events_per_s.shards1", exchangeRate(1)},
	{"sim.exchange_events_per_s.shardsN", exchangeRate(min(runtime.NumCPU(), 8))},
}
