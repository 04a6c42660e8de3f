package bench

// The wall-clock drivers measure the simulator's HOST cost, not the
// simulated machine: operation issue rates (complete armci op →
// GMR translation → datatype → epoch → sim event round trips per host
// second), derived-datatype pack/unpack throughput, and raw scheduler
// event dispatch rates at large rank counts. They time one loop each
// and leave sizes, repetition and statistics to their callers: the
// layer rows of go run ./benchmark and the root Benchmark* functions.

import (
	"time"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// WallclockContigIssue runs a two-rank ARMCI-MPI job in which rank 0
// issues nops blocking contiguous puts of the given size to rank 1,
// returning the issuing body's host duration.
func WallclockContigIssue(plat *platform.Platform, nops, bytes int) (time.Duration, error) {
	return issueJob(plat, harness.ImplARMCIMPI, nops, func(rt armci.Runtime, addrs []armci.Addr, local armci.Addr) error {
		return rt.Put(local, addrs[1], bytes)
	}, bytes)
}

// WallclockContigPayload is the data-path row: rank 0 issues nops
// contiguous operations of the given size to rank 1 under impl, each
// fenced to remote completion so exactly one payload is in flight and
// the loop measures the steady state — transfer events and the
// payload's copies (one for an epoch-completed put, get or accumulate,
// two where a snapshot is kept) — rather than the pipeline's depth.
// Host bytes per second through the payload path is bytes*nops over
// the returned duration.
func WallclockContigPayload(plat *platform.Platform, impl harness.Impl, op ContigOp, nops, bytes int) (time.Duration, error) {
	return issueJob(plat, impl, nops, func(rt armci.Runtime, addrs []armci.Addr, local armci.Addr) error {
		err := doOp(rt, op, local, addrs[1], nil, bytes)
		rt.Fence(1)
		return err
	}, bytes)
}

// WallclockStridedIssue issues nops strided puts of nsegs segments of
// segBytes each (2-D descriptor, contiguous locally, strided remotely).
func WallclockStridedIssue(plat *platform.Platform, nops, nsegs, segBytes int) (time.Duration, error) {
	span := 2 * nsegs * segBytes
	return issueJob(plat, harness.ImplARMCIMPI, nops, func(rt armci.Runtime, addrs []armci.Addr, local armci.Addr) error {
		s := &armci.Strided{
			Src:       local,
			Dst:       addrs[1],
			SrcStride: []int{segBytes},
			DstStride: []int{2 * segBytes},
			Count:     []int{segBytes, nsegs},
		}
		return rt.PutS(s)
	}, span)
}

// WallclockIOVIssue issues nops generalized I/O vector puts of nsegs
// segments of segBytes each.
func WallclockIOVIssue(plat *platform.Platform, nops, nsegs, segBytes int) (time.Duration, error) {
	span := 2 * nsegs * segBytes
	return issueJob(plat, harness.ImplARMCIMPI, nops, func(rt armci.Runtime, addrs []armci.Addr, local armci.Addr) error {
		g := armci.GIOV{Bytes: segBytes}
		for i := 0; i < nsegs; i++ {
			g.Src = append(g.Src, armci.Addr{Rank: local.Rank, VA: local.VA + int64(i*segBytes)})
			g.Dst = append(g.Dst, armci.Addr{Rank: addrs[1].Rank, VA: addrs[1].VA + int64(2*i*segBytes)})
		}
		return rt.PutV([]armci.GIOV{g}, addrs[1].Rank)
	}, span)
}

// issueJob is the shared two-rank issue-rate skeleton: allocate a GMR
// and a local buffer, have rank 0 issue op nops times (timing only the
// issue loop), then free collectively. The shm fast path is disabled
// so the full RMA epoch path — the expensive one — is what is measured.
func issueJob(plat *platform.Platform, impl harness.Impl, nops int, op func(rt armci.Runtime, addrs []armci.Addr, local armci.Addr) error, span int) (time.Duration, error) {
	var dur time.Duration
	opt := armcimpi.DefaultOptions()
	opt.NoShm = true
	_, err := harness.RunObs(plat, 2, impl, opt, nil, func(j *harness.Job, p *sim.Proc) error {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(span)
		if err != nil {
			return err
		}
		local := rt.MallocLocal(span)
		rt.Barrier()
		if rt.Rank() == 0 {
			t0 := time.Now()
			for i := 0; i < nops; i++ {
				if err := op(rt, addrs, local); err != nil {
					return err
				}
			}
			dur = time.Since(t0)
		}
		rt.Barrier()
		if err := rt.FreeLocal(local); err != nil {
			return err
		}
		return rt.Free(addrs[rt.Rank()])
	})
	return dur, err
}

// WallclockEvents runs a pure scheduler workload: nranks ranks each
// advancing virtual time steps times with co-prime durations so wake
// events interleave. It returns the number of dispatched events and
// the host duration of the whole run.
func WallclockEvents(nranks, steps int) (int64, time.Duration, error) {
	e := sim.NewEngine()
	t0 := time.Now()
	err := e.Run(nranks, func(p *sim.Proc) {
		d := sim.Time(1 + p.ID()%13)
		for i := 0; i < steps; i++ {
			p.Elapse(d)
		}
	})
	return e.Stats().Events, time.Since(t0), err
}

// WallclockPackType builds the datatype exercised by the pack
// benchmarks: a 2-D subarray of nsegs rows of segBytes bytes inside a
// parent array twice as wide, the shape the direct strided method
// produces.
func WallclockPackType(nsegs, segBytes int) mpi.Datatype {
	return mpi.TypeSubarray(
		[]int{nsegs, 2 * segBytes},
		[]int{nsegs, segBytes},
		[]int{0, segBytes / 2},
		1,
	)
}

// WallclockPackRoundtrip runs iters pack+unpack round trips of t
// through the RMA layer's kernels and returns the host duration. The
// caller supplies the buffers so allocation is excluded.
func WallclockPackRoundtrip(t mpi.Datatype, src, dense []byte, iters int) time.Duration {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		mpi.PackInto(dense, t, src)
		mpi.Unpack(t, src, dense)
	}
	return time.Since(t0)
}
