package harness

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/fabric"
)

// TestMain runs every test of this package — the conformance suite,
// the plan-equivalence matrix, the route and fault tests — with the
// payload pool poisoning each buffer as it is released: an operation
// that still reads its snapshot after handing it back, or that trusts a
// recycled buffer to be zero, computes with 0xDB bytes and fails the
// data comparison it sits under.
func TestMain(m *testing.M) {
	fabric.BufHook = func(b []byte, put bool) {
		if put {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	os.Exit(m.Run())
}

// litmusSeg is one contiguous piece of a litmus transfer: n bytes from
// the local buffer at src to the target slice at dst.
type litmusSeg struct{ src, dst, n int }

// The three descriptor shapes, as segment lists (8-byte aligned, so the
// same lists serve accumulate). Each is issued through its own entry
// point: contiguous, strided (4 rows of 16, strides 24 and 32), IOV.
var litmusShapes = []struct {
	name string
	segs []litmusSeg
}{
	{"contig", []litmusSeg{{0, 16, 64}}},
	{"strided", []litmusSeg{{0, 16, 16}, {24, 48, 16}, {48, 80, 16}, {72, 112, 16}}},
	{"iov", []litmusSeg{{0, 8, 16}, {40, 64, 16}, {96, 160, 16}}},
}

// litmusIssue issues one put (acc == false) or accumulate of the shape
// from local to base, blocking or as Nb*+Wait.
func litmusIssue(rt armci.Runtime, shape string, segs []litmusSeg, local, base armci.Addr, acc bool, scale float64, nb bool) error {
	var h armci.Handle
	var err error
	switch shape {
	case "contig":
		src, dst, n := local.Add(segs[0].src), base.Add(segs[0].dst), segs[0].n
		switch {
		case !acc && !nb:
			err = rt.Put(src, dst, n)
		case !acc:
			h, err = rt.NbPut(src, dst, n)
		case !nb:
			err = rt.Acc(armci.AccDbl, scale, src, dst, n)
		default:
			h, err = rt.NbAcc(armci.AccDbl, scale, src, dst, n)
		}
	case "strided":
		s := &armci.Strided{
			Src: local.Add(segs[0].src), Dst: base.Add(segs[0].dst),
			SrcStride: []int{segs[1].src - segs[0].src}, DstStride: []int{segs[1].dst - segs[0].dst},
			Count: []int{segs[0].n, len(segs)},
		}
		switch {
		case !acc && !nb:
			err = rt.PutS(s)
		case !acc:
			h, err = rt.NbPutS(s)
		case !nb:
			err = rt.AccS(armci.AccDbl, scale, s)
		default:
			h, err = rt.NbAccS(armci.AccDbl, scale, s)
		}
	default:
		g := armci.GIOV{Bytes: segs[0].n}
		for _, sg := range segs {
			g.Src = append(g.Src, local.Add(sg.src))
			g.Dst = append(g.Dst, base.Add(sg.dst))
		}
		iov := []armci.GIOV{g}
		switch {
		case !acc && !nb:
			err = rt.PutV(iov, base.Rank)
		case !acc:
			h, err = rt.NbPutV(iov, base.Rank)
		case !nb:
			err = rt.AccV(armci.AccDbl, scale, iov, base.Rank)
		default:
			h, err = rt.NbAccV(armci.AccDbl, scale, iov, base.Rank)
		}
	}
	if err == nil && h != nil {
		h.Wait()
	}
	return err
}

// TestSnapshotSemanticsLitmus pins the contract the payload pool must
// not bend: once a blocking Put/Acc (or an Nb* followed by Wait)
// returns, the origin buffer is the caller's again. Rank 0 overwrites
// it at once, fences, and reads the target back — which must hold the
// bytes the buffer had at issue, for every runtime, descriptor shape,
// and both a same-node target (shm and near routes) and a cross-node
// one (the wire). A runtime that recycled or re-read the snapshot early
// would deliver the 0xFF overwrite or the pool's 0xDB poison instead.
func TestSnapshotSemanticsLitmus(t *testing.T) {
	const slice, localBytes = 256, 128
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		for _, target := range []int{1, 2} {
			for _, shape := range litmusShapes {
				for _, tc := range []struct {
					acc   bool
					scale float64
				}{{false, 1}, {true, 1}, {true, -2.5}} {
					for _, nb := range []bool{false, true} {
						name := fmt.Sprintf("target %d %s acc=%v scale=%v nb=%v", target, shape.name, tc.acc, tc.scale, nb)
						addrs, err := rt.Malloc(slice)
						must(t, err)
						if rt.Rank() == 0 {
							local := rt.MallocLocal(localBytes)
							lb, err := rt.LocalBytes(local, localBytes)
							must(t, err)
							for e := 0; e < localBytes/8; e++ {
								binary.LittleEndian.PutUint64(lb[8*e:], math.Float64bits(float64(e)+1.25))
							}
							want := make([]byte, slice) // the target slice starts zeroed
							for _, sg := range shape.segs {
								for o := 0; o < sg.n; o += 8 {
									v := math.Float64frombits(binary.LittleEndian.Uint64(lb[sg.src+o:]))
									if tc.acc {
										v = 0 + tc.scale*v
									}
									binary.LittleEndian.PutUint64(want[sg.dst+o:], math.Float64bits(v))
								}
							}
							must(t, litmusIssue(rt, shape.name, shape.segs, local, addrs[target], tc.acc, tc.scale, nb))
							for i := range lb {
								lb[i] = 0xFF // the buffer is ours again: scribble on it
							}
							rt.Fence(target)
							back := rt.MallocLocal(slice)
							must(t, rt.Get(addrs[target], back, slice))
							got, err := rt.LocalBytes(back, slice)
							must(t, err)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s: target byte %d = %#x, want %#x (pre-overwrite data)", name, i, got[i], want[i])
								}
							}
							must(t, rt.FreeLocal(back))
							must(t, rt.FreeLocal(local))
						}
						rt.Barrier()
						must(t, rt.Free(addrs[rt.Rank()]))
					}
				}
			}
		}
	})
}

// TestWarmContigOpsAllocateNoPayload pins the steady state the pool
// exists for: once the size class is warm, a 64 KiB contiguous put, get
// or scaled accumulate allocates about a kilobyte of host memory per
// operation — the plan, epoch records, closures and events — and no
// payload copy (the parent allocated two to four 64 KiB temporaries
// per op). The target is on another node, so every byte crosses the
// full RMA path. The MPI-2 backend's budget is 1.5 KiB rather than
// 1 KiB: its per-op lock/unlock epoch and 240-byte plan put a get at
// 1.1 KiB and a prescaled accumulate at 1.2 KiB before any payload.
func TestWarmContigOpsAllocateNoPayload(t *testing.T) {
	const (
		size   = 64 << 10
		warm   = 8
		ops    = 64
		target = 2
	)
	variants := []struct {
		name   string
		impl   Impl
		opt    armcimpi.Options
		budget uint64 // bytes per operation
	}{
		{"native", ImplNative, armcimpi.DefaultOptions(), 1 << 10},
		{"armci-mpi", ImplARMCIMPI, armcimpi.DefaultOptions(), 3 << 9},
		{"armci-mpi3", ImplARMCIMPI, mpi3Options(), 1 << 10},
	}
	for _, v := range variants {
		for _, op := range []string{"put", "get", "acc"} {
			t.Run(v.name+"/"+op, func(t *testing.T) {
				var perOp uint64
				_, err := Run(TestPlatform(), 4, v.impl, v.opt, func(rt armci.Runtime) {
					addrs, err := rt.Malloc(size)
					must(t, err)
					local := rt.MallocLocal(size)
					if rt.Rank() == 0 {
						issue := func(n int) {
							for i := 0; i < n; i++ {
								switch op {
								case "put":
									must(t, rt.Put(local, addrs[target], size))
								case "get":
									must(t, rt.Get(addrs[target], local, size))
								default:
									must(t, rt.Acc(armci.AccDbl, 1.5, local, addrs[target], size))
								}
								rt.Fence(target)
							}
						}
						// The other ranks are parked in the barrier below long
						// before the warm-up's virtual time has passed, so the
						// measured window holds rank 0's allocations only.
						issue(warm)
						var m0, m1 runtime.MemStats
						runtime.ReadMemStats(&m0)
						issue(ops)
						runtime.ReadMemStats(&m1)
						perOp = (m1.TotalAlloc - m0.TotalAlloc) / ops
					}
					rt.Barrier()
					must(t, rt.FreeLocal(local))
					must(t, rt.Free(addrs[rt.Rank()]))
				})
				must(t, err)
				if perOp >= v.budget {
					t.Errorf("warm %d-byte %s allocates %d B/op, budget %d", size, op, perOp, v.budget)
				}
			})
		}
	}
}
