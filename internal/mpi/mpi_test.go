package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
)

// runMPI executes body on n ranks of a small test machine and fails the
// test on deadlock or panic. It returns the world for counter checks.
func runMPI(t *testing.T, n int, body func(r *Rank)) *World {
	t.Helper()
	eng := sim.NewEngine()
	par := fabric.Params{
		Name: "test", Nodes: (n + 1) / 2, CoresPerNode: 2,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
		LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9,
		PageSize: 4096, PinPageNs: 0, BounceThreshold: 0,
		BounceRate: 1e9, UnpinnedRate: 0.5e9, AccumRate: 1e9,
	}
	m, err := fabric.NewMachine(eng, par, n)
	if err != nil {
		t.Fatal(err)
	}
	tun := &platform.Tuning{BandwidthFrac: 1.0, OpOverheadNs: 200}
	w := NewWorld(m, tun)
	if err := eng.Run(n, func(p *sim.Proc) { body(w.Rank(p)) }); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			data, st := c.Recv(0, 7)
			if string(data) != "hello" {
				t.Errorf("payload = %q", data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Size != 5 {
				t.Errorf("status = %+v", st)
			}
		}
	})
}

func TestRecvWildcards(t *testing.T) {
	runMPI(t, 3, func(r *Rank) {
		c := r.CommWorld()
		switch c.Rank() {
		case 0:
			// Two messages with different tags from different sources.
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				data, st := c.Recv(AnySource, AnyTag)
				got[fmt.Sprintf("%s/%d/%d", data, st.Source, st.Tag)] = true
			}
			if !got["a/1/10"] || !got["b/2/20"] {
				t.Errorf("wildcard recv got %v", got)
			}
		case 1:
			c.Send(0, 10, []byte("a"))
		case 2:
			r.P.Elapse(10_000)
			c.Send(0, 20, []byte("b"))
		}
	})
}

func TestRecvFiltersByTagAndSource(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 6, []byte("six"))
		} else {
			// Receive tag 6 first even though 5 arrived earlier.
			data, _ := c.Recv(0, 6)
			if string(data) != "six" {
				t.Errorf("tag-6 recv got %q", data)
			}
			data, _ = c.Recv(0, 5)
			if string(data) != "five" {
				t.Errorf("tag-5 recv got %q", data)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() == 0 {
			buf := []byte("abc")
			c.Send(1, 1, buf)
			buf[0] = 'X' // must not affect the delivered message
		} else {
			data, _ := c.Recv(0, 1)
			if string(data) != "abc" {
				t.Errorf("payload = %q, want abc (send must copy)", data)
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [4]sim.Time
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		r.P.Elapse(sim.Time(1000 * (r.ID() + 1) * 1000)) // staggered arrival
		c.Barrier()
		after[r.ID()] = r.P.Now()
	})
	// Everyone leaves the barrier no earlier than the slowest arrival.
	for i, tm := range after {
		if tm < 4_000_000 {
			t.Errorf("rank %d left the barrier at %v, before the slowest arrival", i, tm)
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, root := range []int{0, 2} {
		root := root
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			runMPI(t, 5, func(r *Rank) {
				c := r.CommWorld()
				var data []byte
				if c.Rank() == root {
					data = []byte("payload")
				}
				out := c.Bcast(root, data)
				if string(out) != "payload" {
					t.Errorf("rank %d got %q", c.Rank(), out)
				}
			})
		})
	}
}

func TestAllgatherOrdersByRank(t *testing.T) {
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		out := c.Allgather([]byte{byte('A' + c.Rank())})
		var all []byte
		for _, p := range out {
			all = append(all, p...)
		}
		if string(all) != "ABCD" {
			t.Errorf("allgather = %q", all)
		}
	})
}

func TestGather(t *testing.T) {
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		out := c.Gather(1, []byte{byte(c.Rank())})
		if c.Rank() == 1 {
			for i, p := range out {
				if len(p) != 1 || p[0] != byte(i) {
					t.Errorf("gather[%d] = %v", i, p)
				}
			}
		} else if out != nil {
			t.Error("non-root got gather data")
		}
	})
}

func TestAllreduceSumAndMax(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runMPI(t, n, func(r *Rank) {
				c := r.CommWorld()
				sum := c.AllreduceF64(OpSum, []float64{float64(c.Rank() + 1), 1})
				wantSum := float64(n*(n+1)) / 2
				if sum[0] != wantSum || sum[1] != float64(n) {
					t.Errorf("rank %d: sum = %v, want [%v %v]", c.Rank(), sum, wantSum, n)
				}
				mx := c.AllreduceI64(OpMax, []int64{int64(c.Rank())})
				if mx[0] != int64(n-1) {
					t.Errorf("max = %d, want %d", mx[0], n-1)
				}
			})
		})
	}
}

func TestCommSplitAndIsolation(t *testing.T) {
	runMPI(t, 6, func(r *Rank) {
		c := r.CommWorld()
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("split size = %d, want 3", sub.Size())
		}
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			t.Errorf("split rank = %d, want %d", sub.Rank(), wantRank)
		}
		// Traffic on sub must not leak across colors.
		sum := sub.AllreduceI64(OpSum, []int64{int64(c.Rank())})
		want := int64(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum[0] != want {
			t.Errorf("rank %d: subcomm sum = %d, want %d", c.Rank(), sum[0], want)
		}
	})
}

func TestCommSplitUndefinedColor(t *testing.T) {
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color should give nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("split size = %d, want 3", sub.Size())
		}
	})
}

func TestCommDup(t *testing.T) {
	runMPI(t, 3, func(r *Rank) {
		c := r.CommWorld()
		d := c.Dup()
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			t.Error("dup changed shape")
		}
		if d.ContextID() == c.ContextID() {
			t.Error("dup shares a context id")
		}
		// Message sent on the dup must not match a recv on world.
		if c.Rank() == 0 {
			d.Send(1, 5, []byte("dup"))
			c.Send(1, 5, []byte("world"))
		} else if c.Rank() == 1 {
			data, _ := c.Recv(0, 5)
			if string(data) != "world" {
				t.Errorf("world recv matched %q", data)
			}
			data, _ = d.Recv(0, 5)
			if string(data) != "dup" {
				t.Errorf("dup recv matched %q", data)
			}
		}
	})
}

func TestCommCreateGroupSubset(t *testing.T) {
	runMPI(t, 8, func(r *Rank) {
		c := r.CommWorld()
		members := []int{1, 3, 4, 6} // only these call
		in := false
		for _, m := range members {
			if m == c.Rank() {
				in = true
			}
		}
		if !in {
			return // noncollective: non-members do not participate
		}
		sub := CommCreateGroup(c, members, 500)
		if sub.Size() != 4 {
			t.Fatalf("group comm size = %d, want 4", sub.Size())
		}
		// Rank order follows sorted members.
		want := map[int]int{1: 0, 3: 1, 4: 2, 6: 3}
		if sub.Rank() != want[c.Rank()] {
			t.Errorf("world %d: group rank = %d, want %d", c.Rank(), sub.Rank(), want[c.Rank()])
		}
		sum := sub.AllreduceI64(OpSum, []int64{int64(c.Rank())})
		if sum[0] != 1+3+4+6 {
			t.Errorf("group allreduce = %d", sum[0])
		}
	})
}

func TestCommCreateGroupSingle(t *testing.T) {
	runMPI(t, 4, func(r *Rank) {
		if r.ID() != 2 {
			return
		}
		sub := CommCreateGroup(r.CommWorld(), []int{2}, 600)
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("singleton group: size=%d rank=%d", sub.Size(), sub.Rank())
		}
	})
}

func TestCommCreateGroupOddSizes(t *testing.T) {
	for _, k := range []int{2, 3, 5, 7} {
		k := k
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			runMPI(t, 8, func(r *Rank) {
				members := make([]int, k)
				for i := range members {
					members[i] = i // first k ranks
				}
				if r.ID() >= k {
					return
				}
				sub := CommCreateGroup(r.CommWorld(), members, 700)
				if sub.Size() != k || sub.Rank() != r.ID() {
					t.Errorf("size=%d rank=%d, want %d/%d", sub.Size(), sub.Rank(), k, r.ID())
				}
				sum := sub.AllreduceI64(OpSum, []int64{1})
				if sum[0] != int64(k) {
					t.Errorf("allreduce over group = %d, want %d", sum[0], k)
				}
			})
		})
	}
}

func TestSelfComm(t *testing.T) {
	runMPI(t, 3, func(r *Rank) {
		s := r.Self()
		if s.Size() != 1 || s.Rank() != 0 {
			t.Error("self comm shape wrong")
		}
		out := s.AllreduceF64(OpSum, []float64{3.5})
		if out[0] != 3.5 {
			t.Errorf("self allreduce = %v", out)
		}
	})
}

func TestCodecsRoundTrip(t *testing.T) {
	f := []float64{0, -1.5, 3.25e10, -7}
	if got := bytesToF64s(f64sToBytes(f)); !floatsEq(got, f) {
		t.Errorf("f64 roundtrip = %v", got)
	}
	i := []int64{0, -1, 1 << 40, -(1 << 62)}
	got := bytesToI64s(i64sToBytes(i))
	for k := range i {
		if got[k] != i[k] {
			t.Errorf("i64 roundtrip = %v", got)
		}
	}
}

func floatsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReduceOps(t *testing.T) {
	d := []float64{1, 5}
	reduceF64(OpMin, d, []float64{3, 2})
	if d[0] != 1 || d[1] != 2 {
		t.Errorf("min: %v", d)
	}
	x := []int64{0b1010}
	reduceI64(OpBOR, x, []int64{0b0101})
	if x[0] != 0b1111 {
		t.Errorf("bor: %v", x)
	}
	y := []int64{7}
	reduceI64(OpReplace, y, []int64{9})
	if y[0] != 9 {
		t.Errorf("replace: %v", y)
	}
}

func TestCollectiveCostGrowsWithSize(t *testing.T) {
	// A barrier over 8 ranks must take longer than over 2.
	timeFor := func(n int) sim.Time {
		eng := sim.NewEngine()
		par := fabric.Params{
			Name: "t", Nodes: n, CoresPerNode: 1,
			LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
			LocalLatencyNs: 100, LocalBandwidth: 4e9,
			CopyRate: 4e9, Flops: 1e9, PageSize: 4096,
			BounceRate: 1e9, UnpinnedRate: 1e9, AccumRate: 1e9,
		}
		m, _ := fabric.NewMachine(eng, par, n)
		w := NewWorld(m, &platform.Tuning{BandwidthFrac: 1, OpOverheadNs: 200})
		if err := eng.Run(n, func(p *sim.Proc) {
			w.Rank(p).CommWorld().Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().FinalTime
	}
	if t2, t8 := timeFor(2), timeFor(8); t8 <= t2 {
		t.Errorf("barrier(8)=%v should exceed barrier(2)=%v", t8, t2)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSum: "SUM", OpMin: "MIN", OpMax: "MAX",
		OpProd: "PROD", OpBOR: "BOR", OpReplace: "REPLACE", OpNoOp: "NO_OP"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("unknown op should include its number")
	}
}

func TestAllgatherLargePayloadIntegrity(t *testing.T) {
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		mine := bytes.Repeat([]byte{byte(c.Rank())}, 10000)
		out := c.Allgather(mine)
		for i, p := range out {
			if len(p) != 10000 || p[0] != byte(i) || p[9999] != byte(i) {
				t.Errorf("chunk %d corrupted", i)
			}
		}
	})
}

func TestRendezvousLargeMessages(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		big := bytes.Repeat([]byte{0xCD}, r.W.EagerLimit*3)
		big[0], big[len(big)-1] = 0x01, 0x02
		if c.Rank() == 0 {
			c.Send(1, 9, big)
		} else {
			data, st := c.Recv(0, 9)
			if st.Size != len(big) || data[0] != 0x01 || data[len(data)-1] != 0x02 {
				t.Errorf("rendezvous payload corrupted: size=%d", st.Size)
			}
		}
	})
}

func TestRendezvousSenderWaitsForReceiver(t *testing.T) {
	// The rendezvous body may only fly once the receiver posts: if the
	// receiver is late, the blocking send completes after it arrives.
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		big := make([]byte, r.W.EagerLimit*2)
		if c.Rank() == 0 {
			c.Send(1, 1, big)
			if r.P.Now() < 400*sim.Microsecond {
				t.Errorf("rendezvous send returned at %v, before the receiver posted at 400us", r.P.Now())
			}
		} else {
			r.P.Elapse(400 * sim.Microsecond)
			c.Recv(0, 1)
		}
	})
}

func TestSymmetricLargeSendrecvNoDeadlock(t *testing.T) {
	// Everyone sends a rendezvous-sized message around a ring using
	// Sendrecv — the pattern the collectives rely on.
	runMPI(t, 4, func(r *Rank) {
		c := r.CommWorld()
		big := bytes.Repeat([]byte{byte(c.Rank())}, r.W.EagerLimit+1)
		right := (c.Rank() + 1) % 4
		left := (c.Rank() + 3) % 4
		data, st := c.Sendrecv(right, 5, big, left, 5)
		if st.Size != len(big) || data[0] != byte(left) {
			t.Errorf("ring exchange got %d bytes from wrong source (%d)", st.Size, data[0])
		}
	})
}

func TestLargeCollectives(t *testing.T) {
	// Collectives must survive rendezvous-sized payloads.
	runMPI(t, 5, func(r *Rank) {
		c := r.CommWorld()
		mine := bytes.Repeat([]byte{byte('a' + c.Rank())}, r.W.EagerLimit+100)
		out := c.Allgather(mine)
		for i, part := range out {
			if len(part) != len(mine) || part[0] != byte('a'+i) {
				t.Fatalf("allgather chunk %d corrupted", i)
			}
		}
		big := make([]byte, r.W.EagerLimit*2)
		if c.Rank() == 2 {
			for i := range big {
				big[i] = byte(i % 251)
			}
		}
		got := c.Bcast(2, big)
		if got[100] != byte(100%251) || got[len(got)-1] != byte((len(got)-1)%251) {
			t.Error("large bcast corrupted")
		}
	})
}

func TestEagerLimitBoundary(t *testing.T) {
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, r.W.EagerLimit))   // eager
			c.Send(1, 2, make([]byte, r.W.EagerLimit+1)) // rendezvous
		} else {
			// Receive in reverse tag order: the rendezvous message can
			// only complete when its Recv posts, while the eager one is
			// already queued.
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if len(d2) != r.W.EagerLimit+1 || len(d1) != r.W.EagerLimit {
				t.Errorf("boundary sizes wrong: %d/%d", len(d1), len(d2))
			}
		}
	})
}

func TestRendezvousCheaperLatencyEagerHigherBandwidthAccounting(t *testing.T) {
	// Sanity: a rendezvous transfer costs at least one extra round trip
	// over an eager transfer of the same (hypothetical) size.
	var eagerT, rvT sim.Time
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() == 0 {
			small := make([]byte, 1024)
			start := r.P.Now()
			c.Send(1, 1, small)
			// eager send returns immediately; measure at receiver side instead
			_ = start
		} else {
			start := r.P.Now()
			c.Recv(0, 1)
			eagerT = r.P.Now() - start
			start = r.P.Now()
			c.Recv(0, 2)
			rvT = r.P.Now() - start
		}
		if c.Rank() == 0 {
			c.Send(1, 2, make([]byte, r.W.EagerLimit*2))
		}
	})
	if rvT <= eagerT {
		t.Errorf("rendezvous recv (%v) should cost more than eager recv (%v)", rvT, eagerT)
	}
}

// TestEagerSendAllocations pins what a warm eager message costs the
// allocator: nothing. The message and its payload are one record that
// the receive hands back to the world's free list; its delivery is that
// record scheduled as an event, not a closure; the receive matches by a
// by-value key; and a blocked receiver waits in its mailbox's one slot.
func TestEagerSendAllocations(t *testing.T) {
	const rounds = 200
	var allocs float64
	runMPI(t, 2, func(r *Rank) {
		c := r.CommWorld()
		data := make([]byte, 8)
		pingPong := func() {
			if c.Rank() == 0 {
				c.Send(1, 1, data)
				out, _ := c.Recv(1, 1)
				c.r.W.M.PutBuf(out)
			} else {
				out, _ := c.Recv(0, 1)
				c.r.W.M.PutBuf(out)
				c.Send(0, 1, data)
			}
		}
		pingPong() // warm: buffers pooled, coroutines started, heap grown
		if c.Rank() == 0 {
			allocs = testing.AllocsPerRun(rounds, pingPong)
		} else {
			for i := 0; i < rounds+1; i++ {
				pingPong()
			}
		}
	})
	if perMsg := allocs / 2; perMsg > 0 {
		t.Errorf("a warm eager message allocates %.1f objects, want 0", perMsg)
	}
}
