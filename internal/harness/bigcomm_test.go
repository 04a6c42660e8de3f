package harness

import (
	"errors"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"repro/internal/armcimpi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TestBigCommMetadataPaths drives the gather-at-root metadata
// collectives at the 4096 ranks the scale sweep starts from:
// communicator Dup via the identity split, window creation, the shared
// allocation address vector and scalar-broadcast mutex counts — then
// data movement and a full free cycle on top of the shared metadata,
// on ARMCI-MPI, dartmpi and native (no windows there; the same
// armci.Directory allocation protocol).
func TestBigCommMetadataPaths(t *testing.T) {
	const nranks = 4096
	plat := platform.Get(platform.CrayXT5)
	for _, impl := range []Impl{ImplARMCIMPI, ImplDartMPI, ImplNative} {
		t.Run(string(impl), func(t *testing.T) {
			opt := armcimpi.DefaultOptions()
			opt.UseMPI3 = true
			j, err := NewJob(plat, nranks, impl, opt)
			if err != nil {
				t.Fatal(err)
			}
			err = j.Eng.Run(nranks, func(p *sim.Proc) {
				rt := j.Runtime(p)
				addrs, err := rt.Malloc(512)
				must(t, err)
				if len(addrs) != nranks {
					t.Errorf("addr vector length %d, want %d", len(addrs), nranks)
				}
				if rt.Rank() == 0 {
					src := rt.MallocLocal(128)
					fill(t, rt, src, 128, func(i int) byte { return byte(i + 3) })
					// Same-node, remote, and far-remote targets.
					for _, target := range []int{1, 100, nranks - 1} {
						must(t, rt.Put(src, addrs[target].Add(32), 128))
					}
					dst := rt.MallocLocal(128)
					must(t, rt.Get(addrs[nranks-1].Add(32), dst, 128))
					b, err := rt.LocalBytes(dst, 128)
					must(t, err)
					for i := range b {
						if b[i] != byte(i+3) {
							t.Fatalf("byte %d = %d, want %d", i, b[i], i+3)
						}
					}
				}
				rt.Barrier()
				must(t, rt.Free(addrs[rt.Rank()]))
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMallocMessagesNearLinear pins the metadata collectives' algorithm
// by counting, not timing: one collective Malloc, Barrier and Free on
// ARMCI-MPI, native and the data server, which share one allocation
// protocol (armci.Directory). Gathers and broadcasts send n−1 messages
// each; the dissemination barriers and the recursive-doubling leader
// election send n·log2(n). So messages ÷ (n·log2 n) stays bounded, and
// 256 ranks send at most 4 × 8/6 times what 64 do. The counts are exact
// and deterministic: a regression to an allgather ring (n(n−1) messages
// per exchange) fails here on any host. dartmpi allocates through the
// ARMCI-MPI engine, so it must send exactly as many messages.
func TestMallocMessagesNearLinear(t *testing.T) {
	count := func(impl Impl, n int) int64 {
		rec := obs.New(obs.Options{})
		_, err := RunObs(platform.Get(platform.CrayXT5), n, impl, armcimpi.DefaultOptions(), rec, func(j *Job, p *sim.Proc) error {
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(64)
			if err != nil {
				return err
			}
			rt.Barrier()
			return rt.Free(addrs[rt.Rank()])
		})
		must(t, err)
		return obs.Total(rec.Stats().Counters[obs.CFabMsgs])
	}
	for _, impl := range []Impl{ImplARMCIMPI, ImplNative, ImplDataServer} {
		msgs := map[int]int64{}
		for _, n := range []int{16, 64, 256} {
			msgs[n] = count(impl, n)
			if per := float64(msgs[n]) / float64(n*bits.Len(uint(n-1))); per > 12 {
				t.Errorf("%s, %d ranks: %d fabric messages, %.1f per rank per log2(n)", impl, n, msgs[n], per)
			}
			if impl == ImplARMCIMPI {
				if dart := count(ImplDartMPI, n); dart != msgs[n] {
					t.Errorf("%d ranks: dartmpi sends %d fabric messages, ARMCI-MPI %d", n, dart, msgs[n])
				}
			}
		}
		if msgs[256]*6 > msgs[64]*4*8 {
			t.Errorf("%s fabric messages: %d at 256 ranks > 16/3 × %d at 64, more than n·log2(n) growth", impl, msgs[256], msgs[64])
		}
	}
}

// TestBigCommDrainPanicAfterMaxTime pins the drain path at the scale
// sweep's smallest size: a 4096-rank job hits Engine.MaxTime while
// ranks are parked inside the gather-at-root metadata collectives, and
// one rank's deferred cleanup panics while the drain unwinds it. The
// run must still return — no hang, no leaked coroutines — with exactly
// ErrTimeLimit, and the whole outcome must be byte-identical across
// repeated runs and to what each scheduler of the commit that recorded
// it reported (one subtest per recording): once draining starts the
// engine never re-examines rank failures, so the late panic cannot
// perturb the reported error or the drain order.
func TestBigCommDrainPanicAfterMaxTime(t *testing.T) {
	const nranks = 4096
	plat := platform.Get(platform.CrayXT5)

	run := func(t *testing.T) string {
		opt := armcimpi.DefaultOptions()
		opt.UseMPI3 = true
		j, err := NewJob(plat, nranks, ImplARMCIMPI, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Small enough to fire while the 4096-rank metadata exchange
		// (window creation, address-vector gather/bcast) is in flight,
		// so most ranks drain out of collective parks.
		j.Eng.MaxTime = sim.FromSeconds(100e-6)
		err = j.Eng.Run(nranks, func(p *sim.Proc) {
			if p.ID() == 37 {
				// Runs during the drain unwinding, i.e. strictly after
				// the deadline: the engine must tolerate a panic from a
				// rank it is in the middle of tearing down.
				defer func() { panic("cleanup fault after deadline") }()
			}
			rt := j.Runtime(p)
			addrs, err := rt.Malloc(512)
			must(t, err)
			src := rt.MallocLocal(64)
			for i := 0; ; i++ {
				target := (rt.Rank() + 1 + i) % nranks
				must(t, rt.Put(src, addrs[target], 64))
				rt.Barrier()
			}
		})
		var tl *sim.ErrTimeLimit
		if !errors.As(err, &tl) {
			t.Fatalf("error %v, want *sim.ErrTimeLimit", err)
		}
		return err.Error()
	}

	// settle waits for the drained coroutines' goroutines to exit; the
	// count only ever returns to baseline if the drain reached every
	// started rank despite the mid-drain panic.
	settle := func(t *testing.T, baseline int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= baseline+4 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines settled at %d, baseline %d: drained coroutines leaked", n, baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for _, rec := range []struct{ sched, err string }{
		{"continuation", "sim: virtual time limit exceeded at 100.251us"},
		{"parallel", "sim: virtual time limit exceeded at 100.251us"},
	} {
		t.Run(rec.sched, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			first := run(t)
			second := run(t)
			if first != second {
				t.Errorf("drain is nondeterministic: %q then %q", first, second)
			}
			settle(t, baseline)
			if first != rec.err {
				t.Errorf("time-limit error %q, recorded %q", first, rec.err)
			}
		})
	}
}
