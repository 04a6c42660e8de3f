package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// arg is one key/value annotation on a trace event: a string or an
// int (anything else is rendered via fmt.Sprint). Args keep insertion
// order so exports are byte-stable.
type arg struct {
	Key string
	Val interface{}
}

type traceEvent struct {
	name  string
	cat   string
	ph    byte // 'X' complete, 'M' metadata
	tsNs  int64
	durNs int64
	pid   int
	tid   int
	args  []arg
}

// Tracer buffers trace events in insertion order. The simulation is
// deterministic, so insertion order — and therefore the exported byte
// stream — is too.
type Tracer struct {
	events []traceEvent

	// named tracks auxiliary lanes (servers, NICs) already given
	// thread_name/thread_sort_index metadata, keyed pid<<32|tid. Rank
	// lanes are named eagerly in meta; auxiliary lanes lazily on first
	// span, since which nodes host servers or carry traffic is only
	// known once the job runs.
	named map[int64]bool
}

func (t *Tracer) span(pid, tid int, cat, name string, start, end sim.Time, args []arg) {
	if end < start {
		end = start
	}
	if tid >= serverLaneBase {
		t.nameAux(pid, tid)
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'X',
		tsNs: int64(start), durNs: int64(end - start),
		pid: pid, tid: tid, args: args,
	})
}

// nameAux emits naming + ordering metadata for an auxiliary lane the
// first time it is used within a job, so Perfetto renders "server
// node N" / "nic node N" rows grouped after the rank rows instead of
// anonymous numeric tids.
func (t *Tracer) nameAux(pid, tid int) {
	key := int64(pid)<<32 | int64(tid)
	if t.named[key] {
		return
	}
	if t.named == nil {
		t.named = make(map[int64]bool)
	}
	t.named[key] = true
	var name string
	var sort int
	if tid >= nicLaneBase {
		node := tid - nicLaneBase
		name = fmt.Sprintf("nic node %d", node)
		sort = 200000 + node
	} else {
		node := tid - serverLaneBase
		name = fmt.Sprintf("server node %d", node)
		sort = 100000 + node
	}
	t.events = append(t.events,
		traceEvent{
			name: "thread_name", ph: 'M', pid: pid, tid: tid,
			args: []arg{{Key: "name", Val: name}},
		},
		traceEvent{
			name: "thread_sort_index", ph: 'M', pid: pid, tid: tid,
			args: []arg{{Key: "sort_index", Val: sort}},
		})
}

// meta emits process and thread naming metadata for a new job.
func (t *Tracer) meta(pid int, label string, nranks int) {
	t.events = append(t.events, traceEvent{
		name: "process_name", ph: 'M', pid: pid,
		args: []arg{{Key: "name", Val: label}},
	})
	for i := 0; i < nranks; i++ {
		t.events = append(t.events,
			traceEvent{
				name: "thread_name", ph: 'M', pid: pid, tid: i,
				args: []arg{{Key: "name", Val: fmt.Sprintf("rank %d", i)}},
			},
			traceEvent{
				name: "thread_sort_index", ph: 'M', pid: pid, tid: i,
				args: []arg{{Key: "sort_index", Val: i}},
			})
	}
}

// WriteTrace exports the buffered events as Chrome trace_event JSON
// (the "JSON object format"), loadable in chrome://tracing and
// Perfetto. Timestamps are virtual microseconds with nanosecond
// precision. Output is byte-deterministic for a deterministic run.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil || r.tr == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	events := r.tr.events
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[` + "\n")
	for i := range events {
		if i > 0 {
			bw.WriteString(",\n")
		}
		writeEvent(bw, &events[i])
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// writeEvent renders one event with a fixed field order so output is
// byte-stable; encoding/json is used only for string escaping.
func writeEvent(bw *bufio.Writer, e *traceEvent) {
	bw.WriteString(`{"name":`)
	bw.Write(jsonString(e.name))
	if e.cat != "" {
		bw.WriteString(`,"cat":`)
		bw.Write(jsonString(e.cat))
	}
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(e.ph)
	bw.WriteByte('"')
	if e.ph != 'M' {
		bw.WriteString(`,"ts":`)
		bw.WriteString(formatUs(e.tsNs))
		bw.WriteString(`,"dur":`)
		bw.WriteString(formatUs(e.durNs))
	}
	bw.WriteString(`,"pid":`)
	bw.WriteString(strconv.Itoa(e.pid))
	bw.WriteString(`,"tid":`)
	bw.WriteString(strconv.Itoa(e.tid))
	if len(e.args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range e.args {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.Write(jsonString(a.Key))
			bw.WriteByte(':')
			bw.Write(jsonValue(a.Val))
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// formatUs renders nanoseconds as decimal microseconds with no
// floating-point round trip: "1234" ns -> "1.234".
func formatUs(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	if ns%1000 == 0 {
		return neg + strconv.FormatInt(ns/1000, 10)
	}
	frac := strconv.FormatInt(ns%1000, 10)
	for len(frac) < 3 {
		frac = "0" + frac
	}
	for frac[len(frac)-1] == '0' {
		frac = frac[:len(frac)-1]
	}
	return neg + strconv.FormatInt(ns/1000, 10) + "." + frac
}

func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return []byte(`"?"`)
	}
	return b
}

func jsonValue(v interface{}) []byte {
	switch x := v.(type) {
	case string:
		return jsonString(x)
	case int:
		return []byte(strconv.Itoa(x))
	default:
		return jsonString(fmt.Sprint(v))
	}
}
