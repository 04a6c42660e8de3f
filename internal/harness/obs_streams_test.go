package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// obsProgram is the one program behind TestObsStreams, on three ranks
// of the two-core test platform (0 and 1 share a node, 2 is one node
// over). Rank 1 — a non-leader core, so dartmpi's leader staging is
// eligible — drives every data-movement entry point at target (0 or 2):
// contiguous, strided and IOV put/get/acc, a 16 KiB put/get pair (over
// dartmpi's staging threshold), the nonblocking forms under one WaitAll
// both Rmw ops, a self put and a put out of global memory. The third rank issues a put, an accumulate and an
// Rmw at the same target from the same instant, so window locks, NICs
// and the target's agent all arbitrate; then both take the target's
// mutex around a short critical section, after a rendezvous-sized
// message between them on the world communicator.
func obsProgram(t *testing.T, rt armci.Runtime, world *mpi.Comm, target int) {
	const span = 32 * 1024
	addrs, err := rt.Malloc(span)
	must(t, err)
	mux, err := rt.CreateMutexes(1)
	must(t, err)
	local := rt.MallocLocal(span)
	fill(t, rt, local, span, func(i int) byte { return byte(i%7 + rt.Rank()) })
	rt.Barrier()
	remote := addrs[target]
	switch rt.Rank() {
	case 1:
		put := &armci.Strided{Src: local, Dst: remote.Add(1024), SrcStride: []int{64}, DstStride: []int{96}, Count: []int{48, 2}}
		get := &armci.Strided{Src: put.Dst, Dst: local.Add(2048), SrcStride: []int{96}, DstStride: []int{64}, Count: []int{48, 2}}
		putV := []armci.GIOV{{Bytes: 40,
			Src: []armci.Addr{local.Add(4096), local.Add(4160)},
			Dst: []armci.Addr{remote.Add(4096), remote.Add(4200)}}}
		getV := []armci.GIOV{{Bytes: 40, Src: putV[0].Dst, Dst: putV[0].Src}}
		must(t, rt.Put(local, remote, 256))
		must(t, rt.Get(remote, local.Add(512), 256))
		must(t, rt.Acc(armci.AccDbl, 2, local, remote.Add(256), 128))
		must(t, rt.PutS(put))
		must(t, rt.GetS(get))
		must(t, rt.AccS(armci.AccDbl, 0.5, put))
		must(t, rt.PutV(putV, target))
		must(t, rt.GetV(getV, target))
		must(t, rt.AccV(armci.AccDbl, 1, putV, target))
		must(t, rt.Put(local, remote.Add(8192), 16*1024))
		must(t, rt.Get(remote.Add(8192), local.Add(8192), 16*1024))
		must(t, rt.Put(local, addrs[1].Add(64), 64))           // the load-store tier
		must(t, rt.Put(addrs[1].Add(64), remote.Add(512), 64)) // a global buffer as the local side
		var hs []armci.Handle
		nb := func(h armci.Handle, err error) {
			must(t, err)
			hs = append(hs, h)
		}
		nb(rt.NbPut(local, remote.Add(6144), 256))
		nb(rt.NbGet(remote.Add(6144), local.Add(6144), 256))
		nb(rt.NbAcc(armci.AccDbl, 3, local, remote.Add(6400), 128))
		put.Dst, get.Src = remote.Add(6656), remote.Add(6656)
		nb(rt.NbPutS(put))
		nb(rt.NbGetS(get))
		nb(rt.NbAccS(armci.AccDbl, 2, put))
		for i := range putV[0].Dst {
			putV[0].Dst[i] = putV[0].Dst[i].Add(3072)
		}
		nb(rt.NbPutV(putV, target))
		nb(rt.NbGetV(getV, target))
		nb(rt.NbAccV(armci.AccDbl, 2, putV, target))
		armci.WaitAll(hs...)
		rt.Fence(target)
		_, err := rt.Rmw(armci.FetchAndAdd, remote.Add(span-8), 5)
		must(t, err)
		_, err = rt.Rmw(armci.Swap, remote.Add(span-16), 9)
		must(t, err)
	case 2 - target:
		must(t, rt.Put(local, remote.Add(28*1024), 256))
		must(t, rt.Acc(armci.AccDbl, 1, local, remote.Add(256), 128))
		_, err := rt.Rmw(armci.FetchAndAdd, remote.Add(span-8), 1)
		must(t, err)
	}
	rt.Barrier()
	if rt.Rank() != target {
		mux.Lock(0, target)
		must(t, rt.Get(remote, local, 8))
		rt.Proc().Elapse(3 * sim.Microsecond)
		must(t, rt.Put(local, remote, 8))
		mux.Unlock(0, target)
	}
	// A rendezvous send whose receiver posts late: the sender is woken
	// by the clear-to-send's handler.
	switch rt.Rank() {
	case 1:
		world.Send(2-target, 7, make([]byte, mpi.DefaultEagerLimit+1))
		rt.Proc().Elapse(100 * sim.Microsecond) // so that wake is on the critical path
	case 2 - target:
		rt.Proc().Elapse(40 * sim.Microsecond)
		world.Recv(1, 7)
	}
	must(t, mux.Destroy())
	must(t, rt.FreeLocal(local))
	must(t, rt.Free(addrs[rt.Rank()]))
}

// conservative routes every strided and IOV call of opt through the
// per-segment method, whose segments each run as a contiguous
// operation in an epoch of their own.
func conservative(opt armcimpi.Options) armcimpi.Options {
	opt.StridedMethod = armcimpi.MethodConservative
	opt.IOVMethod = armcimpi.MethodConservative
	return opt
}

// TestObsStreams pins everything all four instruments record, on all
// four runtimes and on ARMCI-MPI's conservative method, against testdata/obs_streams.golden: per row the
// stats JSON, the PROF JSON, the CRIT JSON and the trace, in full, as
// the public writers emit them. The golden was recorded BEFORE the
// per-instrument hook calls in fabric/mpi/armci/armcimpi/dataserver
// became typed events, and is a contract, not a snapshot: a row that
// moves means a counter, histogram sample, phase interval, matrix
// cell, dependence edge or span was emitted with another value or at
// another point in program order. -update exists for a deliberate,
// explained re-baseline only.
func TestObsStreams(t *testing.T) {
	var out bytes.Buffer
	for _, v := range []struct {
		name string
		impl Impl
		opt  armcimpi.Options
	}{
		{"native", ImplNative, armcimpi.DefaultOptions()},
		{"armci-mpi", ImplARMCIMPI, armcimpi.DefaultOptions()},
		{"armci-mpi3", ImplARMCIMPI, mpi3Options()},
		{"armci-ds", ImplDataServer, armcimpi.DefaultOptions()},
		{"dartmpi", ImplDartMPI, armcimpi.DefaultOptions()},
		{"dartmpi-mpi3", ImplDartMPI, mpi3Options()},
		{"armci-mpi-consrv", ImplARMCIMPI, conservative(armcimpi.DefaultOptions())},
		{"armci-mpi3-consrv", ImplARMCIMPI, conservative(mpi3Options())},
		{"dartmpi-consrv", ImplDartMPI, conservative(armcimpi.DefaultOptions())},
	} {
		for _, tg := range []struct {
			name string
			rank int
		}{{"same-node", 0}, {"cross-node", 2}} {
			rec := obs.New(obs.Options{Trace: true, Profile: true, CritPath: true})
			j, err := NewJobObs(TestPlatform(), 3, v.impl, v.opt, rec)
			must(t, err)
			if err := j.Eng.Run(3, func(p *sim.Proc) {
				obsProgram(t, j.Runtime(p), j.MpiWorld.Rank(p).CommWorld(), tg.rank)
			}); err != nil {
				t.Fatalf("%s/%s: %v", v.name, tg.name, err)
			}
			assertNoLeaks(t, j)
			fmt.Fprintf(&out, "==== %s %s end=%d\n", v.name, tg.name, j.Eng.Now())
			for _, sec := range []struct {
				name  string
				write func() error
			}{
				{"stats", func() error { return rec.WriteStatsJSON(&out) }},
				{"prof", func() error { return rec.Prof().WriteJSON(&out) }},
				{"crit", func() error { return rec.Crit().WriteJSON(&out) }},
				{"trace", func() error { return rec.WriteTrace(&out) }},
			} {
				fmt.Fprintf(&out, "---- %s\n", sec.name)
				at := out.Len()
				if err := sec.write(); err != nil {
					t.Fatalf("%s/%s: %s: %v", v.name, tg.name, sec.name, err)
				}
				if sec.name != "trace" {
					// The indented reports spend a line per histogram
					// bucket: keep every byte of content, one object a line.
					var doc bytes.Buffer
					must(t, json.Compact(&doc, out.Bytes()[at:]))
					out.Truncate(at)
					out.WriteString(strings.ReplaceAll(doc.String(), "},{", "},\n{") + "\n")
				}
			}
		}
	}

	golden := filepath.Join("testdata", "obs_streams.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	gotL, wantL := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	row, sec, shown := "", "", 0
	for i := 0; i < len(gotL) && i < len(wantL) && shown < 8; i++ {
		switch {
		case strings.HasPrefix(wantL[i], "==== "):
			row = wantL[i]
		case strings.HasPrefix(wantL[i], "---- "):
			sec = wantL[i]
		}
		if gotL[i] != wantL[i] {
			t.Errorf("line %d (%s %s):\n  got:  %s\n  want: %s", i+1, row, sec, gotL[i], wantL[i])
			shown++
		}
	}
	t.Fatalf("observability streams moved (%d lines, golden has %d)", len(gotL), len(wantL))
}
