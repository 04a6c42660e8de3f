package harness

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/fabric"
	"repro/internal/sim"
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

// litmusWord is element e of a litmus slice in generation g: distinct
// in every element and every generation, and never 0xDB poison.
func litmusWord(g, e int) uint64 { return uint64(g)<<32 | uint64(e) + 1 }

// fillWords writes generation g of n bytes at a local address.
func fillWords(t *testing.T, rt armci.Runtime, a armci.Addr, n, g int) {
	t.Helper()
	b, err := rt.LocalBytes(a, n)
	must(t, err)
	for e := 0; e < n/8; e++ {
		binary.LittleEndian.PutUint64(b[8*e:], litmusWord(g, e))
	}
}

// TestGetOrderLitmus is the get-side sibling of the snapshot litmus: a
// rank's NbGet of X followed by its own Put to X before the get's Wait
// returns the value X had before the put, for every runtime and a
// same-node and a cross-node target. A get whose target read moved
// behind the put's landing, or whose reply was staged through a buffer
// the put's payload reused, fails here.
func TestGetOrderLitmus(t *testing.T) {
	const n = 4096
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		for _, target := range []int{1, 2} {
			addrs, err := rt.Malloc(n)
			must(t, err)
			fillWords(t, rt, addrs[rt.Rank()], n, 1)
			rt.Barrier()
			if rt.Rank() == 0 {
				into, src := rt.MallocLocal(n), rt.MallocLocal(n)
				fillWords(t, rt, src, n, 2)
				h, err := rt.NbGet(addrs[target], into, n)
				must(t, err)
				must(t, rt.Put(src, addrs[target], n))
				h.Wait()
				got, err := rt.LocalBytes(into, n)
				must(t, err)
				for e := 0; e < n/8; e++ {
					if w, want := binary.LittleEndian.Uint64(got[8*e:]), litmusWord(1, e); w != want {
						t.Fatalf("target %d: element %d = %#x, want the pre-put %#x", target, e, w, want)
					}
				}
				must(t, rt.FreeLocal(src))
				must(t, rt.FreeLocal(into))
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		}
	})
}

// TestReadOwnWritesLitmus: a rank's blocking Put or Acc of X followed
// by its own blocking Get of X, with no fence between, returns the
// rank's own write, for every runtime and a same-node and a cross-node
// target. Location consistency lets another rank see the old value
// until the fence, but never the writer itself: a runtime that lands
// the write at a later event than the get reads the target fails here.
func TestReadOwnWritesLitmus(t *testing.T) {
	const n = 4096
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		for _, target := range []int{1, 2} {
			for _, acc := range []bool{false, true} {
				addrs, err := rt.Malloc(n)
				must(t, err)
				fillWords(t, rt, addrs[rt.Rank()], n, 1)
				rt.Barrier()
				if rt.Rank() == 0 {
					src, into := rt.MallocLocal(n), rt.MallocLocal(n)
					fillWords(t, rt, src, n, 2)
					if acc {
						must(t, rt.Acc(armci.AccDbl, 1, src, addrs[target], n))
					} else {
						must(t, rt.Put(src, addrs[target], n))
					}
					must(t, rt.Get(addrs[target], into, n))
					got, err := rt.LocalBytes(into, n)
					must(t, err)
					for e := 0; e < n/8; e++ {
						want := litmusWord(2, e)
						if acc {
							want = math.Float64bits(math.Float64frombits(litmusWord(1, e)) + math.Float64frombits(want))
						}
						if w := binary.LittleEndian.Uint64(got[8*e:]); w != want {
							t.Errorf("target %d acc=%v: element %d = %#x, want the rank's own write %#x", target, acc, e, w, want)
							break
						}
					}
					must(t, rt.FreeLocal(into))
					must(t, rt.FreeLocal(src))
				}
				rt.Barrier()
				must(t, rt.Free(addrs[rt.Rank()]))
			}
		}
	})
}

// TestMisalignedAccumulate: ARMCI addresses are byte addresses, so an
// accumulate's float64s need not sit on an 8-byte boundary. Rank 0
// accumulates 4 elements from byte offset 4 of a local buffer into byte
// offset 4 of each other rank's slice, which the kernels cannot view as
// float64s, and reads back the sums, on every runtime.
func TestMisalignedAccumulate(t *testing.T) {
	const n, off, scale = 4 * 8, 4, -1.5
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(n + 8)
		must(t, err)
		mine, err := rt.LocalBytes(addrs[rt.Rank()], n+8)
		must(t, err)
		for e := 0; e < 4; e++ {
			binary.LittleEndian.PutUint64(mine[off+8*e:], math.Float64bits(float64(e)+0.25))
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			src := rt.MallocLocal(n + 8)
			lb, err := rt.LocalBytes(src, n+8)
			must(t, err)
			for e := 0; e < 4; e++ {
				binary.LittleEndian.PutUint64(lb[off+8*e:], math.Float64bits(float64(10*e+1)))
			}
			back := rt.MallocLocal(n)
			for _, target := range []int{1, 2, 3} {
				must(t, rt.Acc(armci.AccDbl, scale, src.Add(off), addrs[target].Add(off), n))
				rt.Fence(target)
				must(t, rt.Get(addrs[target].Add(off), back, n))
				got, err := rt.LocalBytes(back, n)
				must(t, err)
				for e := 0; e < 4; e++ {
					want := float64(e) + 0.25 + scale*float64(10*e+1)
					if v := math.Float64frombits(binary.LittleEndian.Uint64(got[8*e:])); v != want {
						t.Errorf("target %d: element %d = %v, want %v", target, e, v, want)
					}
				}
			}
			must(t, rt.FreeLocal(back))
			must(t, rt.FreeLocal(src))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestSelfOverlapTransfers: a transfer whose target is the calling rank
// may read and write overlapping bytes of one allocation, and it lands
// as if its source had been read whole at issue, on every runtime. A
// strided put or get moves four 16-byte rows 24 bytes up, each row onto
// the next one's source; a contiguous accumulate adds 16 elements onto
// themselves three elements up. A segment-by-segment or element-by-
// element walk without staging reads bytes it has already written.
func TestSelfOverlapTransfers(t *testing.T) {
	const slice, shift = 256, 24
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		for _, op := range []string{"put", "get", "acc"} {
			addrs, err := rt.Malloc(slice)
			must(t, err)
			if rt.Rank() == 0 {
				mem, err := rt.LocalBytes(addrs[0], slice)
				must(t, err)
				for e := 0; e < slice/8; e++ {
					binary.LittleEndian.PutUint64(mem[8*e:], math.Float64bits(float64(e)+1.25))
				}
				orig := append([]byte(nil), mem...)
				want := append([]byte(nil), mem...)
				s := &armci.Strided{Src: addrs[0], Dst: addrs[0].Add(shift),
					SrcStride: []int{shift}, DstStride: []int{shift}, Count: []int{16, 4}}
				switch op {
				case "put":
					must(t, rt.PutS(s))
				case "get":
					must(t, rt.GetS(s))
				default:
					must(t, rt.Acc(armci.AccDbl, 1, addrs[0], addrs[0].Add(shift), 128))
				}
				rt.Fence(0)
				if op == "acc" {
					for e := 0; e < 16; e++ {
						v := math.Float64frombits(binary.LittleEndian.Uint64(orig[shift+8*e:])) +
							math.Float64frombits(binary.LittleEndian.Uint64(orig[8*e:]))
						binary.LittleEndian.PutUint64(want[shift+8*e:], math.Float64bits(v))
					}
				} else {
					for k := 0; k < 4; k++ {
						copy(want[shift*(k+1):shift*(k+1)+16], orig[shift*k:shift*k+16])
					}
				}
				for i := range want {
					if mem[i] != want[i] {
						t.Errorf("%s: byte %d = %#x, want %#x (the source as it was at issue)", op, i, mem[i], want[i])
						break
					}
				}
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		}
	})
}

// TestGetRacingPutLitmus races a get of X by rank 0 against a put to X
// by a third rank, started at a spread of offsets. No order is
// promised, but every 8-byte element that comes back is X's old value
// or the put's new one: never poison from a recycled reply buffer, and
// never a value of neither generation.
func TestGetRacingPutLitmus(t *testing.T) {
	const n, racer = 4096, 3
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		for _, target := range []int{1, 2} {
			for _, delay := range []sim.Time{0, 500, 2000, 5000} {
				addrs, err := rt.Malloc(n)
				must(t, err)
				fillWords(t, rt, addrs[rt.Rank()], n, 1)
				buf := rt.MallocLocal(n)
				if rt.Rank() == racer {
					fillWords(t, rt, buf, n, 2)
				}
				rt.Barrier()
				switch rt.Rank() {
				case 0:
					must(t, rt.Get(addrs[target], buf, n))
					got, err := rt.LocalBytes(buf, n)
					must(t, err)
					for e := 0; e < n/8; e++ {
						if w := binary.LittleEndian.Uint64(got[8*e:]); w != litmusWord(1, e) && w != litmusWord(2, e) {
							t.Fatalf("target %d delay %v: element %d = %#x, neither old %#x nor new %#x",
								target, delay, e, w, litmusWord(1, e), litmusWord(2, e))
						}
					}
				case racer:
					rt.Proc().Elapse(delay)
					must(t, rt.Put(buf, addrs[target], n))
				}
				rt.Barrier()
				must(t, rt.FreeLocal(buf))
				must(t, rt.Free(addrs[rt.Rank()]))
			}
		}
	})
}

// TestRetireAfterFailedRun: a run that ends in a rank panic still
// retires its machine — the region rank 0 filled is back in the pool,
// poisoned — and the jobs after it, drawing from the stash, run
// correctly on every runtime: a fresh allocation reads zero and a
// put/get round trip holds.
func TestRetireAfterFailedRun(t *testing.T) {
	const n = 4096
	var filled []byte
	_, err := Run(TestPlatform(), 4, ImplARMCIMPI, armcimpi.DefaultOptions(), func(rt armci.Runtime) {
		addrs, err := rt.Malloc(n)
		must(t, err)
		if rt.Rank() == 0 {
			fill(t, rt, addrs[0], n, func(int) byte { return 0x5A })
			filled, err = rt.LocalBytes(addrs[0], n)
			must(t, err)
			panic("rank 0 gives up")
		}
		rt.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 gives up") {
		t.Fatalf("err = %v, want rank 0's panic", err)
	}
	for i, x := range filled {
		if x != 0xDB {
			t.Fatalf("byte %d of the failed job's region = %#x: its backing was not handed back", i, x)
		}
	}
	forBoth(t, 4, func(t *testing.T, rt armci.Runtime) {
		addrs, err := rt.Malloc(n)
		must(t, err)
		mine, err := rt.LocalBytes(addrs[rt.Rank()], n)
		must(t, err)
		for i, x := range mine {
			if x != 0 {
				t.Fatalf("rank %d: byte %d of a fresh allocation = %#x", rt.Rank(), i, x)
			}
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			src, dst := rt.MallocLocal(n), rt.MallocLocal(n)
			fill(t, rt, src, n, func(i int) byte { return byte(i*7 + 1) })
			must(t, rt.Put(src, addrs[2], n))
			rt.Fence(2)
			must(t, rt.Get(addrs[2], dst, n))
			got, err := rt.LocalBytes(dst, n)
			must(t, err)
			for i, x := range got {
				if want := byte(i*7 + 1); x != want {
					t.Fatalf("round trip byte %d = %#x, want %#x", i, x, want)
				}
			}
			must(t, rt.FreeLocal(dst))
			must(t, rt.FreeLocal(src))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestWarmContigOpsAllocateNoPayload pins the steady state the pool
// exists for: once the size class is warm, a 64 KiB contiguous put, get
// or accumulate allocates about a kilobyte of host memory per operation
// — the plan, epoch records, closures and events — and no payload copy
// (the parent allocated two to four 64 KiB temporaries per op). The
// target is on another node, so every byte crosses the full RMA path.
// The MPI-2 backend's budget is 1.5 KiB rather than 1 KiB: its per-op
// lock/unlock epoch and 240-byte plan put a get at 1.1 KiB and a
// prescaled accumulate at 1.2 KiB before any payload.
//
// It also pins how many pooled buffers each operation draws (BufHook),
// which is how many times its payload is copied on the way besides the
// landing itself. Native and the data server draw none for a put, an
// unscaled accumulate or a get: the skeleton moves each straight from
// source to destination at issue. An epoch-completed ARMCI-MPI put, get
// or unscaled accumulate draws none either: the landing reads the
// origin. A put or accumulate whose call returns before the bytes land
// keeps one snapshot: the request-based MPI-3 Nb* forms. A scaled
// accumulate (acc, at 1.5; acc1 is at scale 1) adds one prescale
// temporary: ARMCI-MPI's, or the direct runtimes' slab, scaled into at
// issue and summed from at once. A get never draws one: the target is
// read straight into the origin buffer.
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
		nb     bool   // issue Nb* and Wait
		budget uint64 // bytes per operation
		draws  map[string]int
	}{
		{"native", ImplNative, armcimpi.DefaultOptions(), false, 1 << 10, map[string]int{"put": 0, "get": 0, "acc": 1, "acc1": 0}},
		{"armci-ds", ImplDataServer, armcimpi.DefaultOptions(), false, 1 << 10, map[string]int{"put": 0, "get": 0, "acc": 1, "acc1": 0}},
		{"armci-mpi", ImplARMCIMPI, armcimpi.DefaultOptions(), false, 3 << 9, map[string]int{"put": 0, "get": 0, "acc": 1, "acc1": 0}},
		{"armci-mpi3", ImplARMCIMPI, mpi3Options(), false, 1 << 10, map[string]int{"put": 0, "get": 0, "acc": 1, "acc1": 0}},
		{"armci-mpi3-nb", ImplARMCIMPI, mpi3Options(), true, 1 << 10, map[string]int{"put": 1, "get": 0, "acc": 2, "acc1": 1}},
	}
	for _, v := range variants {
		for _, op := range []string{"put", "get", "acc", "acc1"} {
			t.Run(v.name+"/"+op, func(t *testing.T) {
				var perOp uint64
				draws := 0
				_, err := Run(TestPlatform(), 4, v.impl, v.opt, func(rt armci.Runtime) {
					addrs, err := rt.Malloc(size)
					must(t, err)
					local := rt.MallocLocal(size)
					if rt.Rank() == 0 {
						issue := func(n int) {
							for i := 0; i < n; i++ {
								var h armci.Handle
								switch {
								case op == "put" && v.nb:
									h, err = rt.NbPut(local, addrs[target], size)
								case op == "put":
									err = rt.Put(local, addrs[target], size)
								case op == "get" && v.nb:
									h, err = rt.NbGet(addrs[target], local, size)
								case op == "get":
									err = rt.Get(addrs[target], local, size)
								default:
									scale := 1.5
									if op == "acc1" {
										scale = 1
									}
									if v.nb {
										h, err = rt.NbAcc(armci.AccDbl, scale, local, addrs[target], size)
									} else {
										err = rt.Acc(armci.AccDbl, scale, local, addrs[target], size)
									}
								}
								must(t, err)
								if h != nil {
									h.Wait()
								}
								rt.Fence(target)
							}
						}
						// The other ranks are parked in the barrier below long
						// before the warm-up's virtual time has passed, so the
						// measured window holds rank 0's allocations only.
						issue(warm)
						poison := fabric.BufHook
						fabric.BufHook = func(b []byte, put bool) {
							if !put {
								draws++
							}
							poison(b, put)
						}
						var m0, m1 runtime.MemStats
						runtime.ReadMemStats(&m0)
						issue(ops)
						runtime.ReadMemStats(&m1)
						fabric.BufHook = poison
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
				if want := v.draws[op] * ops; draws != want {
					t.Errorf("warm %d-byte %s draws %d pooled buffers in %d ops, want %d per op", size, op, draws, ops, v.draws[op])
				}
			})
		}
	}
}
