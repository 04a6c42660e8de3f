package armcimpi

import (
	"testing"

	"repro/internal/armci"
)

// TestNbHandleWaitIdempotent checks the nonblocking handle contract on
// the MPI-3 request path: Wait may be called repeatedly, Test reports
// completion after Wait, and WaitAll tolerates duplicate and nil
// handles — all without double-releasing the underlying views.
func TestNbHandleWaitIdempotent(t *testing.T) {
	opt := DefaultOptions()
	opt.UseMPI3 = true
	run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(512)
		must(t, err)
		local := rt.MallocLocal(512)
		lb, err := rt.LocalBytes(local, 512)
		must(t, err)
		if rt.Rank() == 0 {
			for i := range lb {
				lb[i] = byte(i % 251)
			}
			hp, err := rt.NbPut(local, addrs[1], 256)
			must(t, err)
			s := &armci.Strided{
				Src: local.Add(256), Dst: addrs[1].Add(256),
				SrcStride: []int{32}, DstStride: []int{64},
				Count: []int{32, 3},
			}
			hs, err := rt.NbPutS(s)
			must(t, err)
			armci.WaitAll(hp, hs, hp, nil, hs)
			hp.Wait()
			hs.Wait()
			if !hp.(armci.Tester).Test() || !hs.(armci.Tester).Test() {
				t.Error("Test false after Wait")
			}
			rt.AllFence()
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			check := rt.MallocLocal(512)
			hg, err := rt.NbGet(addrs[1], check, 256)
			must(t, err)
			hg.Wait()
			hg.Wait()
			cb, err := rt.LocalBytes(check, 256)
			must(t, err)
			for i := range cb {
				if cb[i] != byte(i%251) {
					t.Fatalf("byte %d: got %d want %d", i, cb[i], byte(i%251))
				}
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestNbMPI2CompletesImmediately checks the MPI-2 degradation: every
// nonblocking operation is complete before its handle is returned.
func TestNbMPI2CompletesImmediately(t *testing.T) {
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(256)
		must(t, err)
		local := rt.MallocLocal(256)
		if rt.Rank() == 0 {
			h, err := rt.NbAcc(armci.AccDbl, 2, local, addrs[1], 64)
			must(t, err)
			if !h.(armci.Tester).Test() {
				t.Error("MPI-2 nonblocking handle not complete on return")
			}
			iov := armci.GIOV{
				Src:   []armci.Addr{local},
				Dst:   []armci.Addr{addrs[1].Add(128)},
				Bytes: 32,
			}
			hv, err := rt.NbPutV([]armci.GIOV{iov}, 1)
			must(t, err)
			if !hv.(armci.Tester).Test() {
				t.Error("MPI-2 nonblocking IOV handle not complete on return")
			}
			armci.WaitAll(h, hv)
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestBatchedErrorReleasesEpoch drives the batched executor into a
// mid-epoch failure (the second segment's local address lies in no
// allocation, which only execution can detect) and checks the runtime
// stays usable: the open epoch must have been closed and the held view
// released, or the follow-up operations would deadlock on the window.
func TestBatchedErrorReleasesEpoch(t *testing.T) {
	opt := DefaultOptions()
	opt.IOVMethod = MethodBatched
	run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(512)
		must(t, err)
		local := rt.MallocLocal(512)
		if rt.Rank() == 0 {
			iov := armci.GIOV{
				Src:   []armci.Addr{local, local.Add(1 << 20)},
				Dst:   []armci.Addr{addrs[1], addrs[1].Add(64)},
				Bytes: 32,
			}
			if err := rt.PutV([]armci.GIOV{iov}, 1); err == nil {
				t.Error("PutV with an unallocated local segment did not fail")
			}
			// The window must be lockable again for every operation class.
			must(t, rt.Put(local, addrs[1].Add(128), 64))
			must(t, rt.Acc(armci.AccDbl, 3, local, addrs[1].Add(256), 64))
			must(t, rt.Get(addrs[1], local, 64))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestSingleErrorReleasesEpoch does the same for the single-plan path:
// a strided direct transfer whose local side is unallocated fails at
// acquire, after which the target window must still be usable.
func TestSingleErrorReleasesEpoch(t *testing.T) {
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(512)
		must(t, err)
		local := rt.MallocLocal(512)
		if rt.Rank() == 0 {
			s := &armci.Strided{
				Src: local.Add(1 << 20), Dst: addrs[1],
				SrcStride: []int{32}, DstStride: []int{64},
				Count: []int{32, 2},
			}
			if err := rt.PutS(s); err == nil {
				t.Error("PutS with an unallocated local buffer did not fail")
			}
			must(t, rt.Put(local, addrs[1], 64))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestNbStridedScratchInFlight issues two MPI-3 nonblocking transfers
// of different shapes before waiting on either, for every method and
// both descriptor surfaces, and checks every landed byte against a
// serial copy. The compiled plans borrow the runtime's scratch (plan.go),
// and requests in flight still read their datatypes when they land, so
// the second compile must not rebuild what the first one's requests
// read. The target is on the other node: the wire route, where a put
// lands after its request has completed.
func TestNbStridedScratchInFlight(t *testing.T) {
	type shape struct{ lOff, rOff, seg, n, rStride int }
	shapes := []shape{
		{lOff: 0, rOff: 0, seg: 16, n: 8, rStride: 48},
		{lOff: 256, rOff: 1024, seg: 32, n: 4, rStride: 80},
	}
	const winBytes = 2048
	desc := func(sh shape, class OpClass, local, remote armci.Addr) *armci.Strided {
		s := &armci.Strided{
			Src: local.Add(sh.lOff), Dst: remote.Add(sh.rOff),
			SrcStride: []int{sh.seg}, DstStride: []int{sh.rStride},
			Count: []int{sh.seg, sh.n},
		}
		if class == ClassGet {
			s.Src, s.Dst = s.Dst, s.Src
			s.SrcStride, s.DstStride = s.DstStride, s.SrcStride
		}
		return s
	}
	for _, method := range []Method{MethodDirect, MethodIOVDirect, MethodBatched, MethodConservative} {
		for _, giov := range []bool{false, true} {
			name := method.String()
			if giov {
				name += "/giov"
			}
			t.Run(name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.UseMPI3 = true
				opt.StridedMethod, opt.IOVMethod = method, method
				run(t, 4, opt, func(rt *Runtime) {
					addrs, err := rt.Malloc(winBytes)
					must(t, err)
					if rt.Rank() == 0 {
						remote := addrs[2]
						src, dst, check := rt.MallocLocal(512), rt.MallocLocal(512), rt.MallocLocal(winBytes)
						sb, err := rt.LocalBytes(src, 512)
						must(t, err)
						for i := range sb {
							sb[i] = byte(i%251 + 1)
						}
						issue := func(class OpClass, s *armci.Strided) armci.Handle {
							var h armci.Handle
							var err error
							switch {
							case giov && class == ClassGet:
								h, err = rt.NbGetV([]armci.GIOV{s.ToGIOV()}, remote.Rank)
							case giov:
								h, err = rt.NbPutV([]armci.GIOV{s.ToGIOV()}, remote.Rank)
							case class == ClassGet:
								h, err = rt.NbGetS(s)
							default:
								h, err = rt.NbPutS(s)
							}
							must(t, err)
							return h
						}

						// Puts: the target region against a serial copy.
						want := make([]byte, winBytes)
						var hs []armci.Handle
						for _, sh := range shapes {
							s := desc(sh, ClassPut, src, remote)
							s.Iterate(func(so, do int) {
								copy(want[sh.rOff+do:sh.rOff+do+sh.seg], sb[sh.lOff+so:])
							})
							hs = append(hs, issue(ClassPut, s))
						}
						armci.WaitAll(hs...)
						rt.AllFence()
						must(t, rt.Get(remote, check, winBytes))
						got, err := rt.LocalBytes(check, winBytes)
						must(t, err)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("put: target byte %d = %d, want %d", i, got[i], want[i])
							}
						}

						// Gets: a patterned target, read back into dst.
						for i := range got {
							got[i] = byte(i%241 + 7)
						}
						must(t, rt.Put(check, remote, winBytes))
						rt.AllFence()
						wantDst := make([]byte, 512)
						hs = hs[:0]
						for _, sh := range shapes {
							s := desc(sh, ClassGet, dst, remote)
							s.Iterate(func(so, do int) {
								copy(wantDst[sh.lOff+do:sh.lOff+do+sh.seg], got[sh.rOff+so:])
							})
							hs = append(hs, issue(ClassGet, s))
						}
						armci.WaitAll(hs...)
						db, err := rt.LocalBytes(dst, 512)
						must(t, err)
						for i := range wantDst {
							if db[i] != wantDst[i] {
								t.Fatalf("get: local byte %d = %d, want %d", i, db[i], wantDst[i])
							}
						}
					}
					rt.Barrier()
					must(t, rt.Free(addrs[rt.Rank()]))
				})
			})
		}
	}
}
