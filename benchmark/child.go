package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// childArgs selects what one child process does. Every repetition,
// driver set and probe is its own process so nothing — heap, caches,
// GC pacing — carries from one measurement to the next.
type childArgs struct {
	kind       string // rep, drivers, guard, calib
	seed       int64
	smoke      bool
	dry        bool   // rep: everything but the generator calls
	obs        int    // rep: recorder level, 0 = none
	cpuProfile string // rep: profile the generator calls into this file
	spans      bool   // record spans (traced run only)
}

// childOut is what a child prints, as one JSON object.
type childOut struct {
	WallNs     int64   `json:"wall_ns"` // inside the generator calls
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`
	HeapSys    uint64  `json:"heap_sys_bytes"`
	Geomean    float64 `json:"geomean"` // virtual cost, see virtCost
	Digest     string  `json:"digest"`  // sha256 of the figures' JSON
	Checks     []check `json:"checks,omitempty"`
	Spans      []span  `json:"spans,omitempty"`
	// Layer holds per-layer values: recorder counts, driver timings.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// meter times the generator calls of one repetition and keeps their
// figures. Spans are recorded only in a traced run.
type meter struct {
	wall  time.Duration
	figs  []*bench.Figure
	trace bool
	spans []span
}

func (m *meter) call(name string, gen func() (*bench.Figure, error)) error {
	t0 := time.Now()
	fig, err := gen()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	m.wall += d
	m.figs = append(m.figs, fig)
	m.span(name, t0, d)
	return nil
}

func (m *meter) span(name string, t0 time.Time, d time.Duration) {
	if m.trace {
		m.spans = append(m.spans, span{Name: name, Start: t0.UnixNano(), End: t0.Add(d).UnixNano()})
	}
}

func runChild(w *workload, c childArgs, stdout io.Writer) error {
	var out childOut
	var err error
	switch c.kind {
	case "rep":
		out, err = childRep(w, c)
	case "drivers":
		out, err = childDrivers(w, c)
	case "guard":
		out.Checks = guardChecks()
	case "calib":
		out.Layer = map[string]float64{"host.calib_ns": calibrate(c.smoke)}
	default:
		err = fmt.Errorf("unknown child kind %q", c.kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(&out)
}

// childRep is one repetition: seed -> inputs, the generator calls
// (the only measured region), then serialisation and the checks that
// need the figures.
func childRep(w *workload, c childArgs) (childOut, error) {
	var out childOut
	jitterPlatforms(uint64(c.seed))
	var rec *obs.Recorder
	if c.obs > 0 {
		rec = obs.New(obs.Options{Profile: c.obs >= 2, CritPath: c.obs >= 3})
	}
	m := &meter{trace: c.spans}
	if c.dry {
		return out, nil
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return out, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return out, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.gen(m, c.smoke, rec)
	runtime.ReadMemStats(&after)
	if c.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return out, err
	}
	out.WallNs = m.wall.Nanoseconds()
	out.Mallocs = after.Mallocs - before.Mallocs
	out.AllocBytes = after.TotalAlloc - before.TotalAlloc
	out.GCCycles = after.NumGC - before.NumGC
	out.GCPauseNs = after.PauseTotalNs - before.PauseTotalNs
	out.HeapSys = after.HeapSys
	out.Spans = m.spans

	var doc bytes.Buffer
	for _, f := range m.figs {
		if err := f.WriteJSON(&doc); err != nil {
			return out, err
		}
	}
	sum := sha256.Sum256(doc.Bytes())
	out.Digest = hex.EncodeToString(sum[:])
	out.Geomean, out.Checks = virtCost(m.figs)
	if !c.smoke { // the shape claims are about the stock sweeps
		out.Checks = append(out.Checks, w.shape(m.figs)...)
	}
	if w.name == "scale" && c.seed == 0 && !c.smoke {
		out.Checks = append(out.Checks, compareGuarded("scale", doc.Bytes()))
	}
	if c.obs >= 3 {
		layer, chk, err := recorderCounts(rec)
		if err != nil {
			return out, err
		}
		out.Layer = layer
		out.Checks = append(out.Checks, chk)
	}
	return out, nil
}

// virtCost returns the geometric mean, over every (series, x) point,
// of the point's virtual cost: y where the figure reports a time, 1/y
// where it reports a bandwidth. It also checks every point is finite
// and positive, without which the mean has no meaning.
func virtCost(figs []*bench.Figure) (geomean float64, checks []check) {
	points := 0
	var logSum float64
	bad := ""
	for _, f := range figs {
		inverse := strings.Contains(f.YLabel, "bandwidth")
		for _, s := range f.Series {
			for i, y := range s.Y {
				if !(y > 0) || math.IsInf(y, 0) {
					if bad == "" {
						bad = fmt.Sprintf("%s %q x=%g y=%g", f.Name, s.Label, s.X[i], y)
					}
					continue
				}
				if inverse {
					y = 1 / y
				}
				logSum += math.Log(y)
				points++
			}
		}
	}
	if points > 0 {
		geomean = math.Exp(logSum / float64(points))
	}
	return geomean, []check{{Name: "points_finite_positive", OK: bad == "" && points > 0, Detail: bad}}
}

// calibSink keeps the calibration's allocations reachable.
var calibSink [][]byte

// calibrate times a fixed stdlib-only loop that leans on what the
// workloads lean on: small-object allocation with the collector
// running, goroutine hand-off, a 64 MiB copy, and integer arithmetic.
// It knows nothing of the repo's code, so it moves with the host and
// not with a change under test; the parent divides it out of every
// host time (see calibRef).
func calibrate(smoke bool) float64 {
	scale := sized(smoke, 64, 1) // the smoke runs a sixty-fourth of it
	src := make([]byte, scale<<20)
	dst := make([]byte, scale<<20)
	copy(dst, src) // touch both before timing
	t0 := time.Now()

	ring := make([][]byte, 4096)
	for i := 0; i < 62_500*scale; i++ {
		ring[i&4095] = make([]byte, 64+i&255)
	}
	calibSink = ring

	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < 9_375*scale; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)

	for i := 0; i < scale/8; i++ {
		copy(dst, src)
	}

	x := uint64(88172645463325252)
	for i := 0; i < scale<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	dst[0] = byte(x)
	return float64(time.Since(t0).Nanoseconds())
}
