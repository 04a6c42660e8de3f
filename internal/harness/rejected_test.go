package harness

import (
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRejectedCallsProfileAlike issues an invalid Put, PutS and PutV,
// an AccS and AccV of segments that are not whole float64s, and their
// nonblocking forms on every runtime, with the profiler on.
// Each call must fail, and the profile must count each as one
// operation that took no time, whichever runtime refused it and
// whichever check refused it: the same totals as native's, where every
// call opens its scope before it is checked.
func TestRejectedCallsProfileAlike(t *testing.T) {
	totals := func(name string, impl Impl, opt armcimpi.Options) (ops, ns int64) {
		rec := obs.New(obs.Options{Profile: true})
		j, err := NewJobObs(TestPlatform(), 2, impl, opt, rec)
		must(t, err)
		if j.NativeWorld != nil {
			j.NativeWorld.Obs = rec // NewJobObs leaves native's scopes unrecorded
		}
		if err := j.Eng.Run(2, func(p *sim.Proc) {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(256)
			must(t, err)
			if rt.Rank() == 0 {
				local, remote := rt.MallocLocal(256), addrs[1]
				bad := &armci.Strided{Src: local, Dst: remote}                              // no count array
				badV := []armci.GIOV{{Src: []armci.Addr{local}, Dst: []armci.Addr{remote}}} // zero-length segment
				oddS := &armci.Strided{Src: local, Dst: remote, SrcStride: []int{16}, DstStride: []int{16}, Count: []int{12, 2}}
				oddV := []armci.GIOV{{Src: []armci.Addr{local}, Dst: []armci.Addr{remote}, Bytes: 12}}
				issue := func(_ armci.Handle, err error) error { return err }
				for _, op := range []opResult{
					{"Put", rt.Put(local, remote, -1)},
					{"PutS", rt.PutS(bad)},
					{"PutV", rt.PutV(badV, remote.Rank)},
					{"NbPut", issue(rt.NbPut(local, remote, -1))},
					{"NbPutS", issue(rt.NbPutS(bad))},
					{"NbPutV", issue(rt.NbPutV(badV, remote.Rank))},
					{"AccS", rt.AccS(armci.AccDbl, 1, oddS)},
					{"AccV", rt.AccV(armci.AccDbl, 1, oddV, remote.Rank)},
					{"NbAccS", issue(rt.NbAccS(armci.AccDbl, 1, oddS))},
					{"NbAccV", issue(rt.NbAccV(armci.AccDbl, 1, oddV, remote.Rank))},
				} {
					if op.err == nil {
						t.Errorf("%s: invalid %s succeeded", name, op.name)
					}
				}
				must(t, rt.FreeLocal(local))
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, o := range rec.Prof().Report().Ops {
			ops += o.Total.Count
			ns += o.Total.SumNs
		}
		return ops, ns
	}
	wantOps, wantNs := totals("native", ImplNative, variants[0].opt)
	if wantOps != 10 || wantNs != 0 {
		t.Fatalf("native records %d ops taking %d ns, want 10 taking 0", wantOps, wantNs)
	}
	for _, v := range variants[1:] {
		if ops, ns := totals(v.name, v.impl, v.opt); ops != wantOps || ns != wantNs {
			t.Errorf("%s records %d ops taking %d ns, native %d taking %d", v.name, ops, ns, wantOps, wantNs)
		}
	}
}
