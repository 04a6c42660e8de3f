package harness

import (
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// opResult is the outcome of one entry point of allOps.
type opResult struct {
	name string
	err  error
}

// allOps issues every data-movement entry point once, blocking or
// nonblocking, from local to remote (put, acc) or remote to local (get)
// in 16-byte pieces, and returns each one's error.
func allOps(rt armci.Runtime, local, remote armci.Addr, nb bool) []opResult {
	put := &armci.Strided{Src: local, Dst: remote, SrcStride: []int{32}, DstStride: []int{32}, Count: []int{16, 2}}
	get := &armci.Strided{Src: remote, Dst: local, SrcStride: []int{32}, DstStride: []int{32}, Count: []int{16, 2}}
	putV := []armci.GIOV{{Src: []armci.Addr{local, local.Add(32)}, Dst: []armci.Addr{remote, remote.Add(32)}, Bytes: 16}}
	getV := []armci.GIOV{{Src: putV[0].Dst, Dst: putV[0].Src, Bytes: 16}}
	if nb {
		issue := func(_ armci.Handle, err error) error { return err }
		return []opResult{
			{"NbPut", issue(rt.NbPut(local, remote, 16))},
			{"NbGet", issue(rt.NbGet(remote, local, 16))},
			{"NbAcc", issue(rt.NbAcc(armci.AccDbl, 2, local, remote, 16))},
			{"NbPutS", issue(rt.NbPutS(put))},
			{"NbGetS", issue(rt.NbGetS(get))},
			{"NbAccS", issue(rt.NbAccS(armci.AccDbl, 2, put))},
			{"NbPutV", issue(rt.NbPutV(putV, remote.Rank))},
			{"NbGetV", issue(rt.NbGetV(getV, remote.Rank))},
			{"NbAccV", issue(rt.NbAccV(armci.AccDbl, 2, putV, remote.Rank))},
		}
	}
	return []opResult{
		{"Put", rt.Put(local, remote, 16)},
		{"Get", rt.Get(remote, local, 16)},
		{"Acc", rt.Acc(armci.AccDbl, 2, local, remote, 16)},
		{"PutS", rt.PutS(put)},
		{"GetS", rt.GetS(get)},
		{"AccS", rt.AccS(armci.AccDbl, 2, put)},
		{"PutV", rt.PutV(putV, remote.Rank)},
		{"GetV", rt.GetV(getV, remote.Rank)},
		{"AccV", rt.AccV(armci.AccDbl, 2, putV, remote.Rank)},
	}
}

// TestLocalSideMustBeLocal issues, on every runtime, every
// data-movement operation with a descriptor whose *local* side — the
// source of a put or accumulate, the destination of a get — lives on a
// third rank. ARMCI has no third-party transfers: each must be refused,
// and a refused operation must cost nothing anywhere — no byte of any
// rank's memory changed, no virtual time passed at the origin, no
// message on the fabric, no request at a data server, nothing for a
// fence to wait for, and every payload buffer drawn from the pool
// returned to it. (At the parent commit native performed five of the
// nine and the data server all nine, reading the "local" bytes of
// another rank at zero modelled cost.)
func TestLocalSideMustBeLocal(t *testing.T) {
	const slice = 64
	for _, name := range ImplNames() {
		t.Run(name, func(t *testing.T) {
			out := map[*byte]bool{} // pooled buffers drawn and not yet returned
			poison := fabric.BufHook
			fabric.BufHook = func(b []byte, put bool) {
				if put {
					delete(out, &b[0])
				} else {
					out[&b[0]] = true
				}
				poison(b, put)
			}
			defer func() { fabric.BufHook = poison }()

			rec := obs.New(obs.Options{})
			j, err := NewJobObs(TestPlatform(), 4, Impl(name), armcimpi.DefaultOptions(), rec)
			must(t, err)
			err = j.Eng.Run(4, func(p *sim.Proc) {
				rt := j.Runtime(p)
				// Two allocations: rank 2's slice of the first is the
				// remote side, rank 3's slice of the second poses as the
				// "local" buffer of rank 0.
				remote, err := rt.Malloc(slice)
				must(t, err)
				bufs, err := rt.Malloc(slice)
				must(t, err)
				me := rt.Rank()
				pattern := func(a armci.Addr) byte { return byte(0x10*a.Rank + int(a.VA&0xf) + 1) }
				for _, a := range []armci.Addr{remote[me], bufs[me]} {
					fill(t, rt, a, slice, func(i int) byte { return pattern(a) + byte(i) })
				}
				rt.Barrier()
				if me == 0 {
					msgs := func() int64 { return obs.Total(rec.Stats().Counters[obs.CFabMsgs]) }
					t0, m0 := rt.Proc().Now(), msgs()
					for _, nb := range []bool{false, true} {
						for _, op := range allOps(rt, bufs[3], remote[2], nb) {
							if op.err == nil {
								t.Errorf("%s with its local side on rank 3 accepted by rank 0", op.name)
							}
						}
					}
					rt.AllFence()
					if dt := rt.Proc().Now() - t0; dt != 0 {
						t.Errorf("refused operations and their fence took %v of virtual time", dt)
					}
					if dm := msgs() - m0; dm != 0 {
						t.Errorf("refused operations put %d messages on the fabric", dm)
					}
					if j.DSWorld != nil && j.DSWorld.Requests != 0 {
						t.Errorf("refused operations made %d data-server requests", j.DSWorld.Requests)
					}
				}
				rt.Barrier()
				for _, a := range []armci.Addr{remote[me], bufs[me]} {
					mem, err := rt.LocalBytes(a, slice)
					must(t, err)
					for i, b := range mem {
						if want := pattern(a) + byte(i); b != want {
							t.Fatalf("rank %d byte %d of %v = %#x, want %#x: a refused operation wrote memory", me, i, a, b, want)
						}
					}
				}
				rt.Barrier()
				must(t, rt.Free(bufs[me]))
				must(t, rt.Free(remote[me]))
			})
			j.M.Retire() // the backings of regions the runtime keeps come back here
			must(t, err)
			if len(out) != 0 {
				t.Errorf("%d pooled buffers drawn and never returned", len(out))
			}
			assertNoLeaks(t, j)
		})
	}
}

// TestWarmDirectOpsAllocsPinned pins host allocations per warm
// operation through both direct transports: a 64-byte contiguous
// transfer, or 64 segments of 64 bytes as a strided or IOV descriptor,
// to a rank on another node, fenced, and a read-modify-write and a
// mutex round trip there. Every stage a transport schedules is a
// pooled record, and a blocking get waits on the rank's own handle, so
// what is left is the one handle a nonblocking get hands its caller.
func TestWarmDirectOpsAllocsPinned(t *testing.T) {
	const target, span = 2, 64 * 128
	for _, impl := range []Impl{ImplNative, ImplDataServer} {
		_, err := Run(TestPlatform(), 4, impl, armcimpi.DefaultOptions(), func(rt armci.Runtime) {
			addrs, err := rt.Malloc(span)
			must(t, err)
			local := rt.MallocLocal(span)
			mx, err := rt.CreateMutexes(1)
			must(t, err)
			if rt.Rank() == 0 {
				put := &armci.Strided{Src: local, Dst: addrs[target], SrcStride: []int{128}, DstStride: []int{128}, Count: []int{64, 64}}
				get := &armci.Strided{Src: addrs[target], Dst: local, SrcStride: []int{128}, DstStride: []int{128}, Count: []int{64, 64}}
				putV := []armci.GIOV{put.ToGIOV()}
				getV := []armci.GIOV{get.ToGIOV()}
				nb := func(h armci.Handle, err error) error {
					armci.WaitAll(h)
					return err
				}
				for _, op := range []struct {
					name string
					max  float64
					f    func() error
				}{
					{"Put", 0, func() error { return rt.Put(local, addrs[target], 64) }},
					{"Get", 0, func() error { return rt.Get(addrs[target], local, 64) }},
					{"Acc", 0, func() error { return rt.Acc(armci.AccDbl, 2, local, addrs[target], 64) }},
					{"NbPut", 0, func() error { return nb(rt.NbPut(local, addrs[target], 64)) }},
					{"NbGet", 1, func() error { return nb(rt.NbGet(addrs[target], local, 64)) }},
					{"PutS", 0, func() error { return rt.PutS(put) }},
					{"GetS", 0, func() error { return rt.GetS(get) }},
					{"NbGetS", 1, func() error { return nb(rt.NbGetS(get)) }},
					{"AccS", 0, func() error { return rt.AccS(armci.AccDbl, 2, put) }},
					{"NbAccS", 0, func() error { return nb(rt.NbAccS(armci.AccDbl, 2, put)) }},
					{"PutV", 0, func() error { return rt.PutV(putV, target) }},
					{"GetV", 0, func() error { return rt.GetV(getV, target) }},
					{"AccV", 0, func() error { return rt.AccV(armci.AccDbl, 2, putV, target) }},
					{"Rmw", 0, func() error {
						_, err := rt.Rmw(armci.FetchAndAdd, addrs[target], 1)
						return err
					}},
					{"Lock+Unlock", 0, func() error {
						mx.Lock(0, target)
						mx.Unlock(0, target)
						return nil
					}},
				} {
					// The other ranks are parked in the barrier below, so
					// the measured window holds rank 0's allocations only.
					got := testing.AllocsPerRun(20, func() {
						must(t, op.f())
						rt.Fence(target)
					})
					if got > op.max {
						t.Errorf("%s: warm %s allocates %v objects per op, pinned at %v", impl, op.name, got, op.max)
					}
				}
			}
			rt.Barrier()
			must(t, mx.Destroy())
			must(t, rt.FreeLocal(local))
			must(t, rt.Free(addrs[rt.Rank()]))
		})
		must(t, err)
	}
}
