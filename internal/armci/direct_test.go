package armci

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// recTransport is the substitute the Transport seam exists for: a pure
// cost model, as the real transports are, that records everything the
// skeleton hands it and charges nothing. Its remote-completion horizon
// is settable, for the fence test.
type recTransport struct {
	m       *fabric.Machine
	puts    []Xfer
	gets    []Xfer
	serves  []int // amoBytes of each Serve
	opCosts int
	lag     sim.Time // a put is remotely complete this long after issue
}

func (t *recTransport) Labels() Labels {
	return Labels{Name: "rec", Wait: "rec.Wait", Rmw: "rec.Rmw", MutexLock: "rec.MutexLock"}
}
func (t *recTransport) OpCost() sim.Time                   { t.opCosts++; return 0 }
func (t *recTransport) AllocDomain() (fabric.Domain, bool) { return fabric.DomainNone, false }
func (t *recTransport) Put(p *sim.Proc, x Xfer) sim.Time {
	t.puts = append(t.puts, x)
	return p.Now() + t.lag
}
func (t *recTransport) Get(p *sim.Proc, x Xfer, h *Pending) {
	t.gets = append(t.gets, x)
	t.m.Eng.AtEvent(p.Now()+100, h) // complete later, so blocking gets really wait
}
func (t *recTransport) Serve(origin, target int, arrive sim.Time, amoBytes int, ev sim.Event) {
	t.serves = append(t.serves, amoBytes)
	t.m.Eng.AtEvent(arrive, ev)
}

// runRec runs body on n ranks (two per node) of a direct runtime over a
// fresh recTransport.
func runRec(t *testing.T, n int, body func(rt *Direct, tr *recTransport)) *DirectWorld {
	t.Helper()
	eng := sim.NewEngine()
	m, err := fabric.NewMachine(eng, fabric.Params{
		Name: "rec", Nodes: 8, CoresPerNode: 2,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100, LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9, PageSize: 4096, BounceRate: 1e9, UnpinnedRate: 1e9, AccumRate: 1e9,
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recTransport{m: m}
	w := NewDirectWorld(m, tr)
	mw := mpi.NewWorld(m, &platform.Tuning{BandwidthFrac: 1})
	if err := eng.Run(n, func(p *sim.Proc) { body(NewDirect(w, mw.Rank(p)), tr) }); err != nil {
		t.Fatal(err)
	}
	return w
}

func mustT(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectSurfaceDeliversDescribedTransfers checks that each of the 18
// data-movement entry points hands the transport exactly the segments
// its descriptor describes — Strided.Iterate's, or the IOV arrays' — in
// order, with the right target, landing rule, scale, contiguous bit,
// total and origin-side region; that puts and accumulates return the
// zero-size completed handle; and that the bytes arrive.
func TestDirectSurfaceDeliversDescribedTransfers(t *testing.T) {
	const target, span = 2, 1024
	w := runRec(t, 4, func(rt *Direct, tr *recTransport) {
		addrs, err := rt.Malloc(span)
		mustT(t, err)
		local := rt.MallocLocal(span)
		if rt.Rank() == 0 {
			remote := addrs[target]
			lreg, _ := rt.region(local, span)
			rreg, _ := rt.region(remote, span)
			put := &Strided{Src: local.Add(8), Dst: remote.Add(16), SrcStride: []int{24, 96}, DstStride: []int{32, 160}, Count: []int{16, 3, 2}}
			get := &Strided{Src: put.Dst, Dst: put.Src, SrcStride: put.DstStride, DstStride: put.SrcStride, Count: put.Count}
			putV := []GIOV{
				{Src: []Addr{local, local.Add(64)}, Dst: []Addr{remote.Add(8), remote.Add(128)}, Bytes: 24},
				{},
				{Src: []Addr{local.Add(512)}, Dst: []Addr{remote.Add(256)}, Bytes: 8},
			}
			getV := []GIOV{{Src: putV[0].Dst, Dst: putV[0].Src, Bytes: 24}, {Src: putV[2].Dst, Dst: putV[2].Src, Bytes: 8}}
			// The segments each descriptor describes, local side first.
			contig := [][3]int64{{local.VA + 40, remote.VA + 48, 32}}
			var strided, iov [][3]int64
			put.Iterate(func(so, do int) {
				strided = append(strided, [3]int64{put.Src.VA + int64(so), put.Dst.VA + int64(do), 16})
			})
			for _, g := range putV {
				for i := range g.Src {
					iov = append(iov, [3]int64{g.Src[i].VA, g.Dst[i].VA, int64(g.Bytes)})
				}
			}
			if len(strided) != 6 || len(iov) != 3 {
				t.Fatalf("test descriptors describe %d and %d segments", len(strided), len(iov))
			}
			blocking := func(err error) (Handle, error) { return nil, err }
			for _, c := range []struct {
				name  string
				segs  [][3]int64 // local VA, remote VA, bytes
				get   bool
				acc   bool
				scale float64
				issue func() (Handle, error)
			}{
				{"Put", contig, false, false, 1, func() (Handle, error) { return blocking(rt.Put(local.Add(40), remote.Add(48), 32)) }},
				{"NbPut", contig, false, false, 1, func() (Handle, error) { return rt.NbPut(local.Add(40), remote.Add(48), 32) }},
				{"Acc", contig, false, true, 2.5, func() (Handle, error) { return blocking(rt.Acc(AccDbl, 2.5, local.Add(40), remote.Add(48), 32)) }},
				{"NbAcc", contig, false, true, -1, func() (Handle, error) { return rt.NbAcc(AccDbl, -1, local.Add(40), remote.Add(48), 32) }},
				{"Get", contig, true, false, 1, func() (Handle, error) { return blocking(rt.Get(remote.Add(48), local.Add(40), 32)) }},
				{"NbGet", contig, true, false, 1, func() (Handle, error) { return rt.NbGet(remote.Add(48), local.Add(40), 32) }},
				{"PutS", strided, false, false, 1, func() (Handle, error) { return blocking(rt.PutS(put)) }},
				{"NbPutS", strided, false, false, 1, func() (Handle, error) { return rt.NbPutS(put) }},
				{"AccS", strided, false, true, 0.5, func() (Handle, error) { return blocking(rt.AccS(AccDbl, 0.5, put)) }},
				{"NbAccS", strided, false, true, 3, func() (Handle, error) { return rt.NbAccS(AccDbl, 3, put) }},
				{"GetS", strided, true, false, 1, func() (Handle, error) { return blocking(rt.GetS(get)) }},
				{"NbGetS", strided, true, false, 1, func() (Handle, error) { return rt.NbGetS(get) }},
				{"PutV", iov, false, false, 1, func() (Handle, error) { return blocking(rt.PutV(putV, target)) }},
				{"NbPutV", iov, false, false, 1, func() (Handle, error) { return rt.NbPutV(putV, target) }},
				{"AccV", iov, false, true, 2, func() (Handle, error) { return blocking(rt.AccV(AccDbl, 2, putV, target)) }},
				{"NbAccV", iov, false, true, 4, func() (Handle, error) { return rt.NbAccV(AccDbl, 4, putV, target) }},
				{"GetV", iov, true, false, 1, func() (Handle, error) { return blocking(rt.GetV(getV, target)) }},
				{"NbGetV", iov, true, false, 1, func() (Handle, error) { return rt.NbGetV(getV, target) }},
			} {
				lb, _ := rt.LocalBytes(local, span)
				rb := rreg.Bytes(remote.VA, span)
				for i := range lb {
					lb[i], rb[i] = 0, 0
				}
				from, to := lb, rb // distinct float64 patterns in what will move
				if c.get {
					from, to = rb, lb
				}
				for i, sg := range c.segs {
					off := sg[0] - local.VA
					if c.get {
						off = sg[1] - remote.VA
					}
					for o := int64(0); o < sg[2]; o += 8 {
						binary.LittleEndian.PutUint64(from[off+o:], math.Float64bits(float64(100*i)+float64(o)+1))
					}
				}
				tr.puts, tr.gets, tr.opCosts = nil, nil, 0
				h, err := c.issue()
				mustT(t, err)
				rec := tr.puts
				if c.get {
					rec = tr.gets
				}
				if len(tr.puts)+len(tr.gets) != 1 || len(rec) != 1 || tr.opCosts != 1 {
					t.Fatalf("%s: transport saw %d puts, %d gets, %d op costs", c.name, len(tr.puts), len(tr.gets), tr.opCosts)
				}
				want := Xfer{Target: target, Local: lreg, Accumulate: c.acc, Scale: c.scale}
				for _, sg := range c.segs {
					s := Seg{SrcVA: sg[0], DstVA: sg[1], Sreg: lreg, Dreg: rreg, N: int(sg[2])}
					if c.get {
						s = Seg{SrcVA: sg[1], DstVA: sg[0], Sreg: rreg, Dreg: lreg, N: int(sg[2])}
					}
					want.Segs = append(want.Segs, s)
					want.Total += s.N
				}
				if len(c.segs) == 1 {
					want.One, want.Segs = want.Segs[0], nil
				}
				if !reflect.DeepEqual(rec[0], want) {
					t.Fatalf("%s: transport got\n%+v\nwant\n%+v", c.name, rec[0], want)
				}
				if got := rec[0].Contig(); got != (len(c.segs) == 1) {
					t.Errorf("%s: contiguous bit %v", c.name, got)
				}
				switch {
				case c.get:
					if h != nil {
						if h.(Tester).Test() {
							t.Errorf("%s: handle complete before the transport landed the data", c.name)
						}
						h.Wait()
						h.Wait() // idempotent
						if !h.(Tester).Test() {
							t.Errorf("%s: handle incomplete after Wait", c.name)
						}
						// Each nonblocking get has a handle of its own, and
						// a blocking get waits on the rank's own record:
						// gets issued later leave h complete.
						h2, err := rt.NbGet(remote.Add(600), local.Add(600), 8)
						mustT(t, err)
						if !h.(Tester).Test() {
							t.Errorf("%s: handle incomplete while a later get is in flight", c.name)
						}
						h2.Wait()
						mustT(t, rt.Get(remote.Add(600), local.Add(600), 8))
						h.Wait()
						if !h.(Tester).Test() {
							t.Errorf("%s: handle incomplete after a later blocking Get", c.name)
						}
					}
				case h != nil && h != Handle(completed{}):
					t.Errorf("%s returned handle %#v, want the zero-size completed handle", c.name, h)
				}
				for i, sg := range c.segs {
					off := sg[1] - remote.VA
					if c.get {
						off = sg[0] - local.VA
					}
					for o := int64(0); o < sg[2]; o += 8 {
						want := float64(100*i) + float64(o) + 1
						if c.acc {
							want *= c.scale
						}
						if got := math.Float64frombits(binary.LittleEndian.Uint64(to[off+o:])); got != want {
							t.Fatalf("%s: segment %d offset %d landed %v, want %v", c.name, i, o, got, want)
						}
					}
				}
			}
			// An IOV with nothing in it is complete at once and never
			// reaches the transport.
			tr.puts, tr.gets, tr.opCosts = nil, nil, 0
			mustT(t, rt.PutV([]GIOV{{}}, target))
			h, err := rt.NbGetV(nil, target)
			mustT(t, err)
			h.Wait()
			if len(tr.puts)+len(tr.gets)+tr.opCosts != 0 {
				t.Errorf("empty IOVs reached the transport: %d puts %d gets %d op costs", len(tr.puts), len(tr.gets), tr.opCosts)
			}
		}
		rt.Barrier()
		mustT(t, rt.FreeLocal(local))
		mustT(t, rt.Free(addrs[rt.Rank()]))
	})
	if w.NumAllocs() != 0 {
		t.Errorf("%d allocations live after Free", w.NumAllocs())
	}
}

// TestDirectMalformedNeverReachesTransport: every malformed request is
// an error the skeleton returns before the transport — or the
// operation's software cost — is involved.
func TestDirectMalformedNeverReachesTransport(t *testing.T) {
	runRec(t, 4, func(rt *Direct, tr *recTransport) {
		addrs, err := rt.Malloc(256)
		mustT(t, err)
		bufs, err := rt.Malloc(256)
		mustT(t, err)
		if rt.Rank() == 0 {
			local, remote, third := bufs[0], addrs[2], bufs[3]
			null, nowhere, noRank := Addr{Rank: 2}, Addr{Rank: 2, VA: 0x7fffffff}, Addr{Rank: 99, VA: remote.VA}
			str := func(src, dst Addr, seg int) *Strided {
				return &Strided{Src: src, Dst: dst, SrcStride: []int{64}, DstStride: []int{64}, Count: []int{seg, 2}}
			}
			vec := func(src, dst []Addr, n int) []GIOV { return []GIOV{{Src: src, Dst: dst, Bytes: n}} }
			nb := func(_ Handle, err error) error { return err }
			for name, err := range map[string]error{
				"Put NULL dst":               rt.Put(local, null, 8),
				"Put NULL src":               rt.Put(Addr{}, remote, 8),
				"Put negative size":          rt.Put(local, remote, -8),
				"Put past allocation end":    rt.Put(local, remote.Add(252), 8),
				"Put unmapped":               rt.Put(local, nowhere, 8),
				"Put to no such process":     rt.Put(local, noRank, 8),
				"Put src on third rank":      rt.Put(third, remote, 8),
				"NbPut src on third rank":    nb(rt.NbPut(third, remote, 8)),
				"Get dst on third rank":      rt.Get(remote, third, 8),
				"NbGet dst on third rank":    nb(rt.NbGet(remote, third, 8)),
				"Acc src on third rank":      rt.Acc(AccDbl, 1, third, remote, 8),
				"Acc not float64-sized":      rt.Acc(AccDbl, 1, local, remote, 12),
				"NbAcc not float64-sized":    nb(rt.NbAcc(AccDbl, 1, local, remote, 12)),
				"PutS src on third rank":     rt.PutS(str(third, remote, 16)),
				"GetS dst on third rank":     rt.GetS(str(remote, third, 16)),
				"AccS src on third rank":     rt.AccS(AccDbl, 1, str(third, remote, 16)),
				"AccS not float64-sized":     rt.AccS(AccDbl, 1, str(local, remote, 12)),
				"PutS NULL base":             rt.PutS(str(local, null, 16)),
				"PutS zero segment":          rt.PutS(str(local, remote, 0)),
				"PutS span past end":         rt.PutS(str(local, remote.Add(136), 64)),
				"NbGetS span past end":       nb(rt.NbGetS(str(remote.Add(136), local, 64))),
				"PutV src on third rank":     rt.PutV(vec([]Addr{third}, []Addr{remote}, 8), 2),
				"GetV dst on third rank":     rt.GetV(vec([]Addr{remote}, []Addr{third}, 8), 2),
				"AccV src on third rank":     rt.AccV(AccDbl, 1, vec([]Addr{third}, []Addr{remote}, 8), 2),
				"NbAccV src on third rank":   nb(rt.NbAccV(AccDbl, 1, vec([]Addr{third}, []Addr{remote}, 8), 2)),
				"AccV not float64-sized":     rt.AccV(AccDbl, 1, vec([]Addr{local}, []Addr{remote}, 12), 2),
				"PutV length mismatch":       rt.PutV(vec([]Addr{local, local.Add(8)}, []Addr{remote}, 8), 2),
				"PutV zero segment length":   rt.PutV(vec([]Addr{local}, []Addr{remote}, 0), 2),
				"PutV negative length":       rt.PutV(vec([]Addr{local}, []Addr{remote}, -8), 2),
				"PutV remote not on proc":    rt.PutV(vec([]Addr{local}, []Addr{remote}, 8), 1),
				"GetV remote not on proc":    rt.GetV(vec([]Addr{addrs[1]}, []Addr{local}, 8), 2),
				"PutV NULL segment":          rt.PutV(vec([]Addr{local, local}, []Addr{remote, null}, 8), 2),
				"PutV second segment broken": rt.PutV(vec([]Addr{local, third}, []Addr{remote, remote.Add(8)}, 8), 2),
				"NbPutV segment past end":    nb(rt.NbPutV(vec([]Addr{local}, []Addr{remote.Add(252)}, 8), 2)),
			} {
				if err == nil {
					t.Errorf("%s: accepted", name)
				}
			}
			if _, err := rt.Rmw(FetchAndAdd, null, 1); err == nil {
				t.Error("Rmw on NULL accepted")
			}
			if _, err := rt.Rmw(Swap, remote.Add(252), 1); err == nil {
				t.Error("Rmw straddling the allocation end accepted")
			}
			if n := len(tr.puts) + len(tr.gets) + len(tr.serves) + tr.opCosts; n != 0 {
				t.Errorf("malformed requests reached the transport: %d puts, %d gets, %d serves, %d op costs",
					len(tr.puts), len(tr.gets), len(tr.serves), tr.opCosts)
			}
		}
		rt.Barrier()
		mustT(t, rt.Free(bufs[rt.Rank()]))
		mustT(t, rt.Free(addrs[rt.Rank()]))
	})
}

// TestDirectFenceRmwMutexBookkeeping covers what the skeleton keeps on
// the transport's behalf: the per-target fence horizon from Put's
// return value, atomics and mutex traffic routed through Serve with the
// right word size, FIFO hand-off, and the mutex registry's teardown.
func TestDirectFenceRmwMutexBookkeeping(t *testing.T) {
	var order []int
	w := runRec(t, 4, func(rt *Direct, tr *recTransport) {
		addrs, err := rt.Malloc(64)
		mustT(t, err)
		local := rt.MallocLocal(64)
		mux, err := rt.CreateMutexes(1)
		mustT(t, err)
		if got := rt.w.NumMutexSets(); got != 1 {
			t.Errorf("%d mutex sets live after CreateMutexes, want 1", got)
		}
		if rt.Rank() == 0 {
			tr.lag = 5000
			t0 := rt.Proc().Now()
			mustT(t, rt.Put(local, addrs[2], 8))
			rt.Fence(1)
			if rt.Proc().Now() != t0 {
				t.Error("fencing an idle target took time")
			}
			rt.Fence(2)
			if got := rt.Proc().Now() - t0; got != 5000 {
				t.Errorf("fence returned %v after the put, want the transport's 5000 ns", got)
			}
			tr.lag = 0
			rt.AllFence()
			if got := rt.Proc().Now() - t0; got != 5000 {
				t.Errorf("AllFence waited past the horizon: %v", got)
			}
		}
		rt.Barrier()
		tr.serves = nil
		rt.Barrier()
		old, err := rt.Rmw(FetchAndAdd, addrs[1], 10)
		mustT(t, err)
		if old%10 != 0 || old < 0 || old > 30 {
			t.Errorf("rank %d fetched %d", rt.Rank(), old)
		}
		mux.Lock(0, 3)
		order = append(order, rt.Rank())
		rt.Proc().Elapse(10 * sim.Microsecond)
		mux.Unlock(0, 3)
		rt.Barrier()
		if rt.Rank() == 1 {
			if old, err := rt.Rmw(Swap, addrs[1], 7); err != nil || old != 40 {
				t.Errorf("swap fetched %d, %v; want 40", old, err)
			}
			var amo, ctl int
			for _, b := range tr.serves {
				switch b {
				case 8:
					amo++
				case 0:
					ctl++
				default:
					t.Errorf("Serve with amoBytes %d", b)
				}
			}
			if amo != 5 || ctl != 8 {
				t.Errorf("transport served %d atomics and %d control messages, want 5 and 8", amo, ctl)
			}
		}
		rt.Barrier()
		mustT(t, mux.Destroy())
		mustT(t, rt.FreeLocal(local))
		mustT(t, rt.Free(addrs[rt.Rank()]))
	})
	if len(order) != 4 {
		t.Errorf("critical section entered %d times: %v", len(order), order)
	}
	if w.NumAllocs() != 0 || w.NumMutexSets() != 0 {
		t.Errorf("%d allocations and %d mutex sets live after teardown", w.NumAllocs(), w.NumMutexSets())
	}
}
