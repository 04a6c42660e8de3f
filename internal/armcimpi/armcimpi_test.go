package armcimpi

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// run executes body on n ranks with the given options, returning the
// ARMCI-MPI world for counter checks.
func run(t *testing.T, n int, opt Options, body func(rt *Runtime)) *World {
	t.Helper()
	eng := sim.NewEngine()
	par := fabric.Params{
		Name: "test", Nodes: (n + 1) / 2, CoresPerNode: 2,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
		LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9,
		PageSize: 4096, PinPageNs: 0, BounceThreshold: 0,
		BounceRate: 1e9, UnpinnedRate: 0.5e9, AccumRate: 1e9,
		ShmCopyRate: 8e9,
	}
	m, err := fabric.NewMachine(eng, par, n)
	if err != nil {
		t.Fatal(err)
	}
	mw := mpi.NewWorld(m, &platform.Tuning{BandwidthFrac: 1, OpOverheadNs: 200})
	if opt.UseMPI3 {
		mw.EnableMPI3()
	}
	w := NewWorld(mw)
	if err := eng.Run(n, func(p *sim.Proc) {
		body(New(w, mw.Rank(p), opt))
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestStagingForGlobalLocalBuffers(t *testing.T) {
	// SectionV.E.1: when the local side of a transfer is itself global
	// memory, the data must be staged through a temporary buffer.
	w := run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(128)
		must(t, err)
		addrs2, err := rt.Malloc(128)
		must(t, err)
		if rt.Rank() == 0 {
			// Fill my slice of allocation 1 via DLA.
			mem, err := rt.AccessBegin(addrs[0], 128)
			must(t, err)
			for i := range mem {
				mem[i] = byte(i * 7)
			}
			must(t, rt.AccessEnd(addrs[0]))
			// Put FROM my global slice INTO the other allocation.
			must(t, rt.Put(addrs[0], addrs2[1], 128))
			// Get INTO my global slice.
			must(t, rt.Get(addrs2[1].Add(8), addrs[0].Add(8), 64))
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs2[1], 128)
			must(t, err)
			for i := range mem {
				if mem[i] != byte(i*7) {
					t.Fatalf("staged put byte %d = %d", i, mem[i])
				}
			}
			must(t, rt.AccessEnd(addrs2[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
		must(t, rt.Free(addrs2[rt.Rank()]))
	})
	if w.Staged < 2 {
		t.Errorf("Staged = %d, want >= 2 (put and get both stage)", w.Staged)
	}
}

func TestNoStagingForPlainBuffers(t *testing.T) {
	w := run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(64)
			must(t, rt.Put(src, addrs[1], 64))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	if w.Staged != 0 {
		t.Errorf("Staged = %d for plain local buffers", w.Staged)
	}
}

// methodResult runs the same strided put/get under a strided method
// and returns the received bytes.
func stridedUnderMethod(t *testing.T, method Method) []byte {
	var got []byte
	opt := DefaultOptions()
	opt.StridedMethod = method
	run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(2048)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(512)
			sb, _ := rt.LocalBytes(src, 512)
			for i := range sb {
				sb[i] = byte((i*13 + 5) % 251)
			}
			s := &armci.Strided{
				Src: src, Dst: addrs[1].Add(64),
				SrcStride: []int{32}, DstStride: []int{48},
				Count: []int{24, 10},
			}
			must(t, rt.PutS(s))
			dst := rt.MallocLocal(512)
			g := &armci.Strided{
				Src: addrs[1].Add(64), Dst: dst,
				SrcStride: []int{48}, DstStride: []int{24},
				Count: []int{24, 10},
			}
			must(t, rt.GetS(g))
			db, _ := rt.LocalBytes(dst, 512)
			got = append([]byte(nil), db[:240]...)
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	return got
}

func TestStridedMethodsAgree(t *testing.T) {
	ref := stridedUnderMethod(t, MethodConservative)
	for _, m := range []Method{MethodBatched, MethodIOVDirect, MethodDirect} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			got := stridedUnderMethod(t, m)
			if len(got) != len(ref) {
				t.Fatalf("length %d vs %d", len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("method %v disagrees with conservative at byte %d", m, i)
				}
			}
		})
	}
}

func TestIOVMethodsAgree(t *testing.T) {
	for _, m := range []Method{MethodConservative, MethodBatched, MethodIOVDirect, MethodAuto} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			opt := DefaultOptions()
			opt.IOVMethod = m
			run(t, 2, opt, func(rt *Runtime) {
				addrs, err := rt.Malloc(1024)
				must(t, err)
				if rt.Rank() == 0 {
					src := rt.MallocLocal(256)
					sb, _ := rt.LocalBytes(src, 256)
					for i := range sb {
						sb[i] = byte(i)
					}
					iov := armci.GIOV{
						Src:   []armci.Addr{src, src.Add(32), src.Add(64), src.Add(200)},
						Dst:   []armci.Addr{addrs[1], addrs[1].Add(100), addrs[1].Add(300), addrs[1].Add(700)},
						Bytes: 24,
					}
					must(t, rt.PutV([]armci.GIOV{iov}, 1))
					dst := rt.MallocLocal(96)
					back := armci.GIOV{
						Src:   []armci.Addr{addrs[1], addrs[1].Add(100), addrs[1].Add(300)},
						Dst:   []armci.Addr{dst, dst.Add(32), dst.Add(64)},
						Bytes: 24,
					}
					must(t, rt.GetV([]armci.GIOV{back}, 1))
					db, _ := rt.LocalBytes(dst, 96)
					for s, off := range []int{0, 32, 64} {
						for k := 0; k < 24; k++ {
							if db[off+k] != byte(off+k) {
								t.Fatalf("seg %d byte %d = %d want %d", s, k, db[off+k], byte(off+k))
							}
						}
					}
				}
				rt.Barrier()
				must(t, rt.Free(addrs[rt.Rank()]))
			})
		})
	}
}

func TestAutoFallsBackOnOverlap(t *testing.T) {
	opt := DefaultOptions()
	opt.IOVMethod = MethodAuto
	w := run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(256)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(64)
			// Overlapping destination segments: batched/direct would be
			// erroneous under MPI; auto must detect and go conservative.
			iov := armci.GIOV{
				Src:   []armci.Addr{src, src.Add(16)},
				Dst:   []armci.Addr{addrs[1], addrs[1].Add(8)},
				Bytes: 16,
			}
			must(t, rt.PutV([]armci.GIOV{iov}, 1))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	if w.AutoScans == 0 || w.AutoFalls == 0 {
		t.Errorf("auto scan/fallback counters: %d/%d", w.AutoScans, w.AutoFalls)
	}
}

// TestAutoVerdictOnUnsortedAndEmptySegments pins the SectionVI.B
// verdict on descriptors no workload sends: put segments in descending
// order, aliased or not, and a zero-byte segment, which counts as a
// conflict. The public IOV calls reject a zero-byte descriptor, so that
// row compiles its segments directly.
func TestAutoVerdictOnUnsortedAndEmptySegments(t *testing.T) {
	for _, tc := range []struct {
		name  string
		offs  []int // destination offsets, 16-byte segments
		zero  bool  // compile with a zero-byte segment instead
		falls bool
	}{
		{"descending aliased", []int{64, 40, 32}, false, true},
		{"descending disjoint", []int{96, 64, 32, 0}, false, false},
		{"zero-byte segment", []int{0, 32}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.IOVMethod = MethodAuto
			w := run(t, 2, opt, func(rt *Runtime) {
				addrs, err := rt.Malloc(256)
				must(t, err)
				if rt.Rank() == 0 {
					src := rt.MallocLocal(16 * len(tc.offs))
					sb, _ := rt.LocalBytes(src, 16*len(tc.offs))
					for i := range sb {
						sb[i] = byte(i + 1)
					}
					iov := armci.GIOV{Bytes: 16}
					for i, off := range tc.offs {
						iov.Src = append(iov.Src, src.Add(16*i))
						iov.Dst = append(iov.Dst, addrs[1].Add(off))
					}
					if tc.zero {
						segs := orient(nil, []armci.GIOV{iov}, ClassPut)
						segs[1].n = 0
						if p, err := rt.compileAuto(ClassPut, 1, segs); err != nil || p.kind != planPerSeg {
							t.Errorf("compiled kind %v, %v; want the per-segment plan", p.kind, err)
						}
					} else {
						must(t, rt.PutV([]armci.GIOV{iov}, 1))
					}
				}
				rt.Barrier()
				if rt.Rank() == 1 && !tc.zero && !tc.falls {
					mem, err := rt.AccessBegin(addrs[1], 256)
					must(t, err)
					for i, off := range tc.offs {
						for k := 0; k < 16; k++ {
							if mem[off+k] != byte(16*i+k+1) {
								t.Fatalf("segment %d byte %d = %d", i, k, mem[off+k])
							}
						}
					}
					must(t, rt.AccessEnd(addrs[1]))
				}
				rt.Barrier()
				must(t, rt.Free(addrs[rt.Rank()]))
			})
			if w.AutoScans != 1 || (w.AutoFalls == 1) != tc.falls {
				t.Errorf("auto scans %d, falls %d; want 1 scan, fallback %v", w.AutoScans, w.AutoFalls, tc.falls)
			}
		})
	}
}

func TestAutoFallsBackAcrossGMRs(t *testing.T) {
	opt := DefaultOptions()
	opt.IOVMethod = MethodAuto
	w := run(t, 2, opt, func(rt *Runtime) {
		a1, err := rt.Malloc(64)
		must(t, err)
		a2, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(32)
			iov := armci.GIOV{
				Src:   []armci.Addr{src, src.Add(16)},
				Dst:   []armci.Addr{a1[1], a2[1]}, // two different GMRs
				Bytes: 16,
			}
			must(t, rt.PutV([]armci.GIOV{iov}, 1))
		}
		rt.Barrier()
		must(t, rt.Free(a1[rt.Rank()]))
		must(t, rt.Free(a2[rt.Rank()]))
	})
	if w.AutoFalls == 0 {
		t.Error("cross-GMR IOV did not fall back to conservative")
	}
}

func TestBatchedRespectsBatchSize(t *testing.T) {
	opt := DefaultOptions()
	opt.IOVMethod = MethodBatched
	opt.BatchSize = 3
	run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(4096)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(1024)
			sb, _ := rt.LocalBytes(src, 1024)
			for i := range sb {
				sb[i] = byte(i % 256)
			}
			var iov armci.GIOV
			iov.Bytes = 8
			for i := 0; i < 10; i++ { // 10 segments, batch size 3 -> 4 epochs
				iov.Src = append(iov.Src, src.Add(i*16))
				iov.Dst = append(iov.Dst, addrs[1].Add(i*32))
			}
			must(t, rt.PutV([]armci.GIOV{iov}, 1))
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 4096)
			must(t, err)
			for i := 0; i < 10; i++ {
				for k := 0; k < 8; k++ {
					if mem[i*32+k] != byte((i*16+k)%256) {
						t.Fatalf("seg %d byte %d wrong", i, k)
					}
				}
			}
			must(t, rt.AccessEnd(addrs[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestRmwMPI3Mode(t *testing.T) {
	opt := DefaultOptions()
	opt.UseMPI3 = true
	run(t, 4, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		for i := 0; i < 3; i++ {
			_, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 1)
			must(t, err)
		}
		rt.Barrier()
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(addrs[0], 8)
			must(t, err)
			if got := int64(binary.LittleEndian.Uint64(mem)); got != 12 {
				t.Errorf("MPI-3 rmw counter = %d, want 12", got)
			}
			must(t, rt.AccessEnd(addrs[0]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestRmwMPI3FasterThanMutex(t *testing.T) {
	// Ablation (SectionVIII.B): MPI-3 fetch-and-op must beat the
	// mutex + two-epoch MPI-2 emulation.
	timeFor := func(mpi3 bool) sim.Time {
		opt := DefaultOptions()
		opt.UseMPI3 = mpi3
		var total sim.Time
		run(t, 2, opt, func(rt *Runtime) {
			addrs, err := rt.Malloc(8)
			must(t, err)
			if rt.Rank() == 1 {
				start := rt.Proc().Now()
				for i := 0; i < 10; i++ {
					_, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 1)
					must(t, err)
				}
				total = rt.Proc().Now() - start
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		})
		return total
	}
	t2, t3 := timeFor(false), timeFor(true)
	if t3 >= t2 {
		t.Errorf("MPI-3 rmw (%v) should be faster than mutex emulation (%v)", t3, t2)
	}
}

func TestDLAExcludesRemoteAccess(t *testing.T) {
	// While rank 1 holds direct local access, a remote put must wait.
	var putDone, dlaEnd sim.Time
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 64)
			must(t, err)
			rt.Proc().Elapse(200 * sim.Microsecond)
			mem[0] = 9
			must(t, rt.AccessEnd(addrs[1]))
			dlaEnd = rt.Proc().Now()
		} else {
			rt.Proc().Elapse(50 * sim.Microsecond) // let rank 1 lock first
			src := rt.MallocLocal(8)
			must(t, rt.Put(src, addrs[1].Add(8), 8))
			putDone = rt.Proc().Now()
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	if putDone < dlaEnd {
		t.Errorf("remote put completed at %v, before DLA section ended at %v", putDone, dlaEnd)
	}
}

func TestAccessModeSelectsSharedLocks(t *testing.T) {
	// SectionVIII.A: in a read-only (or accumulate-only) phase the
	// runtime may use shared-lock epochs; in the default conflicting
	// mode every data epoch must be exclusive.
	sharedFor := func(mode armci.AccessMode, doAcc bool) (int64, int64) {
		var shared, excl int64
		run(t, 3, DefaultOptions(), func(rt *Runtime) {
			addrs, err := rt.Malloc(4096)
			must(t, err)
			if mode != armci.ModeConflicting {
				must(t, rt.SetAccessMode(mode, addrs[0]))
			}
			base := rt.W.Mpi.SharedEpochs
			baseEx := rt.W.Mpi.ExclEpochs
			if rt.Rank() > 0 {
				buf := rt.MallocLocal(4096)
				if doAcc {
					must(t, rt.Acc(armci.AccDbl, 1, buf, addrs[2], 4096))
				} else {
					must(t, rt.Get(addrs[2], buf, 4096))
				}
			}
			rt.Barrier()
			if rt.Rank() == 0 {
				shared = rt.W.Mpi.SharedEpochs - base
				excl = rt.W.Mpi.ExclEpochs - baseEx
			}
			must(t, rt.Free(addrs[rt.Rank()]))
		})
		return shared, excl
	}
	if shared, _ := sharedFor(armci.ModeReadOnly, false); shared < 2 {
		t.Errorf("read-only gets used %d shared epochs, want >= 2", shared)
	}
	if shared, excl := sharedFor(armci.ModeConflicting, false); shared != 0 || excl < 2 {
		t.Errorf("conflicting gets: shared=%d excl=%d, want 0 shared", shared, excl)
	}
	if shared, _ := sharedFor(armci.ModeAccOnly, true); shared < 2 {
		t.Errorf("acc-only accumulates used %d shared epochs, want >= 2", shared)
	}
}

func TestMutexesAcrossHosts(t *testing.T) {
	run(t, 4, DefaultOptions(), func(rt *Runtime) {
		mux, err := rt.CreateMutexes(2) // 2 mutexes on every rank
		must(t, err)
		// Everyone locks mutex 1 on every host in turn.
		for host := 0; host < rt.Nprocs(); host++ {
			mux.Lock(1, host)
			rt.Proc().Elapse(sim.Microsecond)
			mux.Unlock(1, host)
		}
		rt.Barrier()
		must(t, mux.Destroy())
	})
}

func TestMutexContention(t *testing.T) {
	// Heavy contention on a single mutex: every waiter must eventually
	// acquire (fairness prevents starvation).
	const n = 8
	acquired := make([]int, n)
	run(t, n, DefaultOptions(), func(rt *Runtime) {
		mux, err := rt.CreateMutexes(1)
		must(t, err)
		for i := 0; i < 5; i++ {
			mux.Lock(0, 3)
			acquired[rt.Rank()]++
			rt.Proc().Elapse(2 * sim.Microsecond)
			mux.Unlock(0, 3)
		}
		rt.Barrier()
		must(t, mux.Destroy())
	})
	for r, c := range acquired {
		if c != 5 {
			t.Errorf("rank %d acquired %d times, want 5", r, c)
		}
	}
}

func TestFenceIsNoOp(t *testing.T) {
	// SectionV.F: operations complete remotely before returning, so
	// Fence costs (virtually) nothing.
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(64)
			must(t, rt.Put(src, addrs[1], 64))
			before := rt.Proc().Now()
			rt.Fence(1)
			rt.AllFence()
			if rt.Proc().Now() != before {
				t.Error("Fence advanced time; should be a no-op under ARMCI-MPI")
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodConservative: "conservative", MethodBatched: "batched",
		MethodIOVDirect: "iov-direct", MethodDirect: "direct", MethodAuto: "auto",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method string empty")
	}
}

func TestGMRTranslationMultipleAllocations(t *testing.T) {
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		var allocs [][]armci.Addr
		for i := 0; i < 5; i++ {
			a, err := rt.Malloc(64 * (i + 1))
			must(t, err)
			allocs = append(allocs, a)
		}
		if rt.Rank() == 0 {
			src := rt.MallocLocal(32)
			sb, _ := rt.LocalBytes(src, 32)
			for i := range sb {
				sb[i] = 0xEE
			}
			// Address translation must pick the right GMR for each.
			for i, a := range allocs {
				must(t, rt.Put(src, a[1].Add(8*i), 32))
			}
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			for i, a := range allocs {
				mem, err := rt.AccessBegin(a[1], 64*(i+1))
				must(t, err)
				if mem[8*i] != 0xEE || mem[8*i+31] != 0xEE {
					t.Fatalf("allocation %d data missing", i)
				}
				must(t, rt.AccessEnd(a[1]))
			}
		}
		rt.Barrier()
		for _, a := range allocs {
			must(t, rt.Free(a[rt.Rank()]))
		}
	})
}

func TestOpsOnFreedAllocationFail(t *testing.T) {
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		saved := addrs[1]
		must(t, rt.Free(addrs[rt.Rank()]))
		if rt.Rank() == 0 {
			src := rt.MallocLocal(8)
			if err := rt.Put(src, saved, 8); err == nil {
				t.Error("put to freed GMR accepted")
			}
		}
	})
}

var _ = fmt.Sprintf

func TestNoStagingModeOnCoherentSystems(t *testing.T) {
	// SectionV.E.1's last point: on coherent systems the global-buffer
	// management can be disabled for better performance. Data must stay
	// correct; the staging counter must stay zero.
	opt := DefaultOptions()
	opt.NoStaging = true
	w := run(t, 2, opt, func(rt *Runtime) {
		a1, err := rt.Malloc(128)
		must(t, err)
		a2, err := rt.Malloc(128)
		must(t, err)
		if rt.Rank() == 0 {
			mem, err := rt.AccessBegin(a1[0], 128)
			must(t, err)
			for i := range mem {
				mem[i] = byte(i + 3)
			}
			must(t, rt.AccessEnd(a1[0]))
			// Put directly from global memory without staging.
			must(t, rt.Put(a1[0], a2[1], 128))
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(a2[1], 128)
			must(t, err)
			for i := range mem {
				if mem[i] != byte(i+3) {
					t.Fatalf("no-staging put byte %d = %d", i, mem[i])
				}
			}
			must(t, rt.AccessEnd(a2[1]))
		}
		rt.Barrier()
		must(t, rt.Free(a1[rt.Rank()]))
		must(t, rt.Free(a2[rt.Rank()]))
	})
	if w.Staged != 0 {
		t.Errorf("NoStaging mode staged %d times", w.Staged)
	}
}

func TestLocationConsistency(t *testing.T) {
	// SectionIV.A/V.F: a process observes its own operations to a given
	// target in issue order. Because every ARMCI-MPI operation completes
	// within its own epoch, a later get must see the latest earlier put.
	run(t, 2, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(8)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(8)
			b, _ := rt.LocalBytes(src, 8)
			for v := byte(1); v <= 5; v++ {
				b[0] = v
				must(t, rt.Put(src, addrs[1], 8))
				dst := rt.MallocLocal(8)
				must(t, rt.Get(addrs[1], dst, 8))
				db, _ := rt.LocalBytes(dst, 8)
				if db[0] != v {
					t.Fatalf("after put %d, get observed %d (location consistency violated)", v, db[0])
				}
				must(t, rt.FreeLocal(dst))
			}
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

func TestDeterministicVirtualTime(t *testing.T) {
	// The same program must produce bit-identical virtual end times.
	elapsed := func() sim.Time {
		var final sim.Time
		run(t, 4, DefaultOptions(), func(rt *Runtime) {
			addrs, err := rt.Malloc(4096)
			must(t, err)
			src := rt.MallocLocal(4096)
			for i := 0; i < 5; i++ {
				target := (rt.Rank() + 1 + i) % rt.Nprocs()
				must(t, rt.Put(src, addrs[target], 512))
				_, err := rt.Rmw(armci.FetchAndAdd, addrs[0], 1)
				must(t, err)
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
			if rt.Proc().Now() > final {
				final = rt.Proc().Now()
			}
		})
		return final
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Errorf("virtual time not deterministic: %v vs %v", a, b)
	}
}

func TestSemanticErrorSurfacedThroughMPIChecking(t *testing.T) {
	// ARMCI-MPI must never trip MPI-2's conflicting-access checking:
	// run a contention-heavy mix with checking enabled (the default)
	// and confirm no window error surfaces.
	w := run(t, 6, DefaultOptions(), func(rt *Runtime) {
		addrs, err := rt.Malloc(4096)
		must(t, err)
		src := rt.MallocLocal(4096)
		for i := 0; i < 4; i++ {
			t1 := (rt.Rank() + 1) % rt.Nprocs()
			t2 := (rt.Rank() + 2) % rt.Nprocs()
			must(t, rt.Put(src, addrs[t1].Add(8*rt.Rank()), 8))
			must(t, rt.Acc(armci.AccDbl, 1, src, addrs[t2], 64))
			must(t, rt.Get(addrs[t1], src, 32))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
	if !w.Mpi.Checked {
		t.Fatal("checking was not enabled")
	}
}

func TestMPI3NonblockingOverlap(t *testing.T) {
	// SectionVIII.B item 3: request-based operations allow overlap of
	// computation and communication — impossible under MPI-2 where
	// ARMCI-MPI's nonblocking calls complete eagerly.
	// The partner is rank 2 — a different node (two cores per node in
	// the test platform): the intra-node shared-memory path completes
	// gets synchronously, so only a cross-node transfer can overlap.
	overlapGain := func(mpi3 bool) float64 {
		opt := DefaultOptions()
		opt.UseMPI3 = mpi3
		var blocking, overlapped sim.Time
		run(t, 3, opt, func(rt *Runtime) {
			addrs, err := rt.Malloc(4 << 20)
			must(t, err)
			if rt.Rank() == 0 {
				dst := rt.MallocLocal(4 << 20)
				start := rt.Proc().Now()
				must(t, rt.Get(addrs[2], dst, 4<<20))
				blocking = rt.Proc().Now() - start
				start = rt.Proc().Now()
				h, err := rt.NbGet(addrs[2], dst, 4<<20)
				must(t, err)
				rt.Proc().Elapse(blocking) // compute while the get flies
				h.Wait()
				overlapped = rt.Proc().Now() - start
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		})
		// Gain = how much of the communication hid behind compute.
		return float64(blocking+blocking) / float64(overlapped)
	}
	if g := overlapGain(true); g < 1.5 {
		t.Errorf("MPI-3 nbget overlap gain %.2f, want ~2 (communication hidden)", g)
	}
	if g := overlapGain(false); g > 1.2 {
		t.Errorf("MPI-2 nbget shows overlap gain %.2f; it must complete eagerly", g)
	}
}

func TestMPI3ContiguousFasterThanMPI2(t *testing.T) {
	// Lock-all + flush saves the per-op lock/unlock round trips.
	latency := func(mpi3 bool) sim.Time {
		opt := DefaultOptions()
		opt.UseMPI3 = mpi3
		var lat sim.Time
		run(t, 2, opt, func(rt *Runtime) {
			addrs, err := rt.Malloc(4096)
			must(t, err)
			if rt.Rank() == 0 {
				src := rt.MallocLocal(4096)
				start := rt.Proc().Now()
				for i := 0; i < 10; i++ {
					must(t, rt.Put(src, addrs[1], 1024))
				}
				lat = (rt.Proc().Now() - start) / 10
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		})
		return lat
	}
	l2, l3 := latency(false), latency(true)
	if l3 >= l2 {
		t.Errorf("MPI-3 put latency (%v) should beat MPI-2 epochs (%v)", l3, l2)
	}
}

func TestMPI3DLAAndRmwInterleave(t *testing.T) {
	// Lock-all mode must coexist with direct local access and atomics
	// on the same window.
	opt := DefaultOptions()
	opt.UseMPI3 = true
	run(t, 2, opt, func(rt *Runtime) {
		addrs, err := rt.Malloc(64)
		must(t, err)
		if rt.Rank() == 0 {
			src := rt.MallocLocal(8)
			must(t, rt.Put(src, addrs[1], 8))
			_, err := rt.Rmw(armci.FetchAndAdd, addrs[1].Add(8), 5)
			must(t, err)
			mem, err := rt.AccessBegin(addrs[0], 64)
			must(t, err)
			mem[0] = 7
			must(t, rt.AccessEnd(addrs[0]))
			_, err = rt.Rmw(armci.FetchAndAdd, addrs[1].Add(8), 5)
			must(t, err)
		}
		rt.Barrier()
		if rt.Rank() == 1 {
			mem, err := rt.AccessBegin(addrs[1], 64)
			must(t, err)
			if got := int64(binary.LittleEndian.Uint64(mem[8:])); got != 10 {
				t.Errorf("counter = %d, want 10", got)
			}
			must(t, rt.AccessEnd(addrs[1]))
		}
		rt.Barrier()
		must(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestMutexCountsMatchOracle creates a mutex set at every size the
// metadata collectives are checked at, with every rank hosting the same
// count (held as one scalar) and with per-rank counts (held as the
// gathered vector, zero counts included), and checks each rank's view
// of every host's count against the serial reference. Each rank then
// takes and releases mutex 0 on the next rank that hosts one, so the
// counts are the ones the lock path validates against. Afterwards every
// pooled message body has come back to the pool.
func TestMutexCountsMatchOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64} {
		for _, uniform := range []bool{true, false} {
			t.Run(fmt.Sprintf("%d/uniform=%v", n, uniform), func(t *testing.T) {
				counts := make([]int, n)
				scalar := true
				for i := range counts {
					counts[i] = 3
					if !uniform {
						counts[i] = (i + 1) % 4
					}
					scalar = scalar && counts[i] == counts[0]
				}
				out := map[*byte]bool{}
				fabric.BufHook = func(b []byte, put bool) {
					if put {
						delete(out, &b[0])
					} else {
						out[&b[0]] = true
					}
				}
				defer func() { fabric.BufHook = nil }()
				w := run(t, n, DefaultOptions(), func(rt *Runtime) {
					m, err := newMutexes(rt, rt.R.CommWorld(), counts[rt.Rank()])
					must(t, err)
					if (m.counts == nil) != scalar {
						t.Errorf("rank %d: counts held as a vector = %v, want %v", rt.Rank(), m.counts != nil, !scalar)
					}
					for host, want := range counts {
						if got := m.countFor(host); got != want {
							t.Errorf("rank %d: host %d hosts %d mutexes, want %d", rt.Rank(), host, got, want)
						}
					}
					for k := 1; k <= n; k++ {
						if host := (rt.Rank() + k) % n; counts[host] > 0 {
							m.Lock(0, host)
							m.Unlock(0, host)
							break
						}
					}
					rt.Barrier()
					must(t, m.Destroy())
				})
				w.Mpi.M.Retire()
				if len(out) != 0 {
					t.Errorf("%d pooled buffers drawn and never returned", len(out))
				}
			})
		}
	}
}
