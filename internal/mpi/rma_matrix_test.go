package mpi

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/platform"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// The op matrix runs every one-sided call through every way this
// package can cost and complete it, on a machine small enough to read:
// four ranks, three per node, so rank 2 is a same-node target (the
// shared-segment route of a WinCreateShared window) and rank 3 a
// cross-node one (the wire route of a WinCreate window). Origins 0 and
// 1 both issue the row's operation; accumulate and atomic rows aim them
// at the same bytes so the target's agent serialises them, put and get
// rows at disjoint ones; both start at the same virtual instant.
// Unpinned origin buffers make the 24-byte contiguous rows take the
// bounce-buffer rate and the 48-byte vector rows pay on-demand
// registration.
//
// testdata/rma_ops.golden was recorded at the commit before the op
// bodies were folded into one core, and is the contract that folding
// moved no cost: bytes, every virtual timestamp, the world and machine
// counters, and — from a second run of each row with a tracing and
// profiling recorder attached, which must not move a timestamp — the
// rma.* / epoch.* / dt.* counters, the raw phase stream, the
// communication matrix and the mpi-layer trace spans.
const (
	matrixWin    = 192 // window bytes per rank
	matrixSlot   = 8   // displacement of the int64 the atomic rows hit
	matrixStride = 96  // put/get rows: origin o works at o*matrixStride
)

type matrixKind struct {
	name            string
	kind            string // "put", "get", "acc", "fop", "cas"
	op              Op
	operand, compar int64 // atomics: origin o adds o to operand
}

var matrixKinds = []matrixKind{
	{name: "put", kind: "put"},
	{name: "get", kind: "get"},
	{name: "acc-sum", kind: "acc", op: OpSum},
	{name: "acc-replace", kind: "acc", op: OpReplace},
	{name: "fop-sum", kind: "fop", op: OpSum, operand: 3},
	{name: "fop-replace", kind: "fop", op: OpReplace, operand: 500},
	{name: "fop-noop", kind: "fop", op: OpNoOp, operand: 9},
	{name: "cas-hit", kind: "cas", operand: 700, compar: 20}, // the slot starts at 20: the first origin hits
	{name: "cas-miss", kind: "cas", operand: 800, compar: -1},
}

func (k matrixKind) atomic() bool { return k.kind == "fop" || k.kind == "cas" }

var matrixSyncs = []string{"shared", "exclusive", "lockall-flush", "lockall-request"}

// matrixLayouts are (origin, target) datatype pairs.
var matrixLayouts = []struct {
	name           string
	origin, target func() Datatype
}{
	{"contig", func() Datatype { return TypeContiguous(24) }, func() Datatype { return TypeContiguous(24) }},
	{"vec-origin", func() Datatype { return TypeVector(6, 8, 16) }, func() Datatype { return TypeContiguous(48) }},
	{"vec-target", func() Datatype { return TypeContiguous(48) }, func() Datatype { return TypeVector(6, 8, 16) }},
}

// phaseLog is a profile.Sink keeping the raw attribution stream.
type phaseLog struct{ lines []string }

func (l *phaseLog) RawPhase(rank int, _ profile.Op, ph profile.Phase, start, end sim.Time) {
	l.lines = append(l.lines, fmt.Sprintf("r%d %s[%d,%d)", rank, ph, start, end))
}
func (l *phaseLog) RawScope(int, profile.Op, sim.Time, sim.Time) {}

// matrixRow runs one row and renders it. With rec set, the observability
// sections follow the timing ones.
func matrixRow(t *testing.T, name string, k matrixKind, shared bool, sync string, li int, rec *obs.Recorder) string {
	t.Helper()
	const n = 4
	eng := sim.NewEngine()
	par := fabric.Params{
		Name: "matrix", Nodes: 2, CoresPerNode: 3,
		LatencyNs: 1000, Bandwidth: 1e9, MsgOverhead: 100,
		LocalLatencyNs: 100, LocalBandwidth: 4e9,
		CopyRate: 4e9, Flops: 1e9,
		PageSize: 4096, PinPageNs: 400, BounceThreshold: 32,
		BounceRate: 0.5e9, UnpinnedRate: 0.5e9, AccumRate: 1e8,
	}
	m, err := fabric.NewMachine(eng, par, n)
	if err != nil {
		t.Fatal(err)
	}
	tun := &platform.Tuning{BandwidthFrac: 0.9, OpOverheadNs: 200, NoProgressDelayNs: 300, ScalePenaltyNs: 10}
	w := NewWorld(m, tun)
	w.EnableMPI3()
	var phases phaseLog
	if rec != nil {
		rec.BeginJob(name, eng, n)
		eng.Observe(rec)
		m.Obs, w.Obs = rec, rec
		rec.Prof().SetSink(&phases)
	}
	target := 3
	create := WinCreate
	if shared {
		target, create = 2, WinCreateShared
	}
	lay := matrixLayouts[li]
	var out [2]string       // per-origin timing line
	var window, gets string // target bytes; get rows: what each origin read
	var originGot [2]string
	err = eng.Run(n, func(p *sim.Proc) {
		r := w.Rank(p)
		reg := r.AllocMem(matrixWin)
		for i := 0; i < matrixWin/8; i++ {
			v := f64sToBytes([]float64{float64(i + 1)})
			if k.atomic() {
				v = i64sToBytes([]int64{int64(i+1) * 10})
			}
			copy(reg.Backing()[8*i:], v)
		}
		win, err := create(r.CommWorld(), reg)
		if err != nil {
			t.Errorf("%s: create: %v", name, err)
			return
		}
		if o := r.ID(); o < 2 {
			out[o], originGot[o] = matrixOrigin(t, name, r, win, k, sync, lay.origin(), lay.target(), target)
		}
		win.Comm().Barrier()
		if r.ID() == target {
			window = fmt.Sprintf("%x", reg.Backing())
		}
		if err := win.Free(); err != nil {
			t.Errorf("%s: Free: %v", name, err)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if k.kind == "get" {
		gets = fmt.Sprintf("  read o0=%s o1=%s\n", originGot[0], originGot[1])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  o0 %s\n  o1 %s\n%s  window %s\n", name, out[0], out[1], gets, window)
	fmt.Fprintf(&b, "  world epochs=%d shared=%d excl=%d rmaops=%d shmcopies=%d shmbytes=%d pinned=%d end=%d\n",
		w.Epochs, w.SharedEpochs, w.ExclEpochs, w.RMAOps, m.ShmCopies, m.ShmBytes, m.PagesPinned, eng.Now())
	if rec != nil {
		b.WriteString(matrixObs(t, rec, &phases))
	}
	return b.String()
}

// matrixOrigin is one origin's side of a row: open, issue, complete,
// close, recording the virtual time after each step.
func matrixOrigin(t *testing.T, name string, r *Rank, win *Win, k matrixKind, sync string, ot, tt Datatype, target int) (line, got string) {
	o := r.ID()
	check := func(step string, err error) {
		if err != nil {
			t.Errorf("%s: origin %d: %s: %v", name, o, step, err)
		}
	}
	local := r.AllocMem(96)
	for i := 0; i < 12; i++ {
		copy(local.Backing()[8*i:], f64sToBytes([]float64{float64(100*(o+1) + i)}))
	}
	buf := LocalBuf{Region: local, Type: ot}
	disp := 0
	if k.kind == "put" || k.kind == "get" {
		disp = o * matrixStride
	}
	lockAll := strings.HasPrefix(sync, "lockall")
	// Window creation leaves the origins skewed; line them up so every
	// request, payload and agent booking of the two collides and the
	// engine's tie-breaks decide the order.
	r.W.M.SleepUntil(r.P, 20*sim.Microsecond)
	switch sync {
	case "shared":
		check("Lock", win.Lock(LockShared, target))
	case "exclusive":
		check("Lock", win.Lock(LockExclusive, target))
	default:
		check("LockAll", win.LockAll())
	}
	tOpen := r.P.Now()
	var req *RMAReq
	var err error
	ret := "-"
	switch {
	case k.kind == "fop":
		var old int64
		old, err = win.FetchAndOp(k.op, k.operand+int64(o), target, matrixSlot)
		ret = fmt.Sprint(old)
	case k.kind == "cas":
		var old int64
		old, err = win.CompareAndSwap(k.compar, k.operand+int64(o), target, matrixSlot)
		ret = fmt.Sprint(old)
	case k.kind == "put" && lockAll:
		req, err = win.RPut(buf, target, disp, tt)
	case k.kind == "put":
		err = win.Put(buf, target, disp, tt)
	case k.kind == "get" && lockAll:
		req, err = win.RGet(buf, target, disp, tt)
	case k.kind == "get":
		err = win.Get(buf, target, disp, tt)
	case lockAll:
		req, err = win.RAccumulate(buf, k.op, target, disp, tt)
	default:
		err = win.Accumulate(buf, k.op, target, disp, tt)
	}
	check("op", err)
	tOp := r.P.Now()
	reqLine := "req=- test=-"
	if sync == "lockall-request" && req != nil {
		before := req.Test()
		req.Wait()
		reqLine = fmt.Sprintf("req=%d test=%v/%v", r.P.Now(), before, req.Test())
	}
	switch sync {
	case "shared", "exclusive":
		check("Unlock", win.Unlock(target))
	case "lockall-flush":
		check("Flush", win.Flush(target))
	default:
		check("FlushAll", win.FlushAll())
	}
	tDone := r.P.Now()
	if lockAll {
		check("UnlockAll", win.UnlockAll())
	}
	return fmt.Sprintf("open=%d op=%d %s done=%d close=%d ret=%s", tOpen, tOp, reqLine, tDone, r.P.Now(), ret),
		fmt.Sprintf("%x", local.Backing())
}

// matrixMetrics are the counters and time accumulators the mpi layer
// (and the fabric under it) feeds.
var matrixMetrics = []string{
	obs.COpsPut, obs.COpsGet, obs.COpsAcc, obs.COpsAmo,
	obs.CBytesContig, obs.CBytesPacked, obs.CBytesShm, obs.CShmCopies,
	obs.CEpochs, obs.CEpochFlush, obs.CPackBytes, obs.CFabMsgs, obs.CFabBytes,
}
var matrixTimes = []string{obs.TLockWaitShared, obs.TLockWaitExcl, obs.TPack}

// matrixObs renders what the recorder saw of one row.
func matrixObs(t *testing.T, rec *obs.Recorder, phases *phaseLog) string {
	var b strings.Builder
	mt := rec.Stats()
	b.WriteString("  metrics")
	for _, name := range matrixMetrics {
		if v := mt.Counters[name]; obs.Total(v) != 0 {
			fmt.Fprintf(&b, " %s=%v", name, v)
		}
	}
	for _, name := range matrixTimes {
		if v := mt.TimesNs[name]; obs.TotalTime(v) != 0 {
			fmt.Fprintf(&b, " %s=%v", name, v)
		}
	}
	b.WriteString("\n  phases " + strings.Join(phases.lines, " ") + "\n")
	for _, c := range rec.Prof().Cells() {
		fmt.Fprintf(&b, "  cell %d->%d %s/%s sent=%d/%dB recv=%d/%dB\n",
			c.Src, c.Dst, c.Class, c.Route, c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes)
	}
	var raw bytes.Buffer
	if err := rec.WriteTrace(&raw); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       json.Number
			Tid           int
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(raw.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.TraceEvents {
		switch e.Cat {
		case "mpi", "epoch", "rma", "dt", "agent":
		default:
			continue
		}
		keys := make([]string, 0, len(e.Args))
		for k := range e.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  span lane=%d %s/%s ts=%s dur=%s", e.Tid, e.Cat, e.Name, e.Ts, e.Dur)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, e.Args[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestRMAOpMatrix(t *testing.T) {
	var got strings.Builder
	for _, k := range matrixKinds {
		layouts := len(matrixLayouts)
		if k.atomic() {
			layouts = 1 // eight bytes have one layout
		}
		for _, shared := range []bool{false, true} {
			route := "wire"
			if shared {
				route = "shm"
			}
			for _, sync := range matrixSyncs {
				for li := 0; li < layouts; li++ {
					name := strings.Join([]string{k.name, route, sync, matrixLayouts[li].name}, "/")
					plain := matrixRow(t, name, k, shared, sync, li, nil)
					seen := matrixRow(t, name, k, shared, sync, li, obs.New(obs.Options{Trace: true, Profile: true}))
					if !strings.HasPrefix(seen, plain) {
						t.Errorf("%s: attaching a recorder moved the row:\n%s--- with recorder:\n%s", name, plain, seen)
					}
					got.WriteString(seen)
				}
			}
		}
	}
	const path = "testdata/rma_ops.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	row := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !strings.HasPrefix(wl[i], " ") {
			row = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("rma_ops.golden line %d (row %s):\n got %s\nwant %s", i+1, row, gl[i], wl[i])
		}
	}
	t.Fatalf("rma_ops.golden: %d lines, want %d", len(gl), len(wl))
}
