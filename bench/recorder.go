package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/obs"
)

// The layers the benchmark can put a span around from outside: the ones
// whose public functions, interfaces or closures it calls or wraps.
// "bench" is the benchmark's own pass span, the root of every tree.
var spanLayers = []string{"bench", "campaign", "harness", "results", "store", "mpi", "serve", "http"}

// maxKeptSpans bounds the spans kept for the trace file. Self times are
// accumulated as spans end, so they cover every span; only the written
// trace is truncated (a serve pass makes two spans per request).
const maxKeptSpans = 1 << 16

// span is one finished interval at a layer boundary.
type span struct {
	layer, name string
	id, parent  int // parent 0: a root
	request     int // the job or request the span belongs to; 0: none
	start, end  tick
}

// openSpan is a span that has begun; child accumulates the time its
// finished children covered.
type openSpan struct {
	span
	child tick
}

// layerTime is what one layer did in a traced run.
type layerTime struct {
	count int
	total tick // summed span durations
	self  tick // total minus the time child spans covered
}

func (lt layerTime) plus(dur, self tick) layerTime {
	return layerTime{count: lt.count + 1, total: lt.total + dur, self: lt.self + self}
}

// recorder is the benchmark's own span recorder: name, start, end and the
// span that caused it. Spans are kept in memory and written when the run
// ends. A nil recorder records nothing, so untraced runs pay one nil
// check per boundary.
//
// Self time is a span's duration minus the summed durations of its direct
// children. The children of one span never overlap here (one campaign
// worker, one handler per request), so the sum is the covered part — with
// one exception: a serving pass has its connections' requests as
// concurrent children, so its self time is clamped to zero and the layer
// times below it are busy time summed over the connections.
type recorder struct {
	mu      sync.Mutex
	nextID  int
	open    map[int]*openSpan
	kept    []span
	dropped int
	byLayer map[string]layerTime
	byName  map[string]layerTime // key: layer + "/" + name
	stack   []int                // implicit parents for the sequential workloads
}

func newRecorder() *recorder {
	return &recorder{open: map[int]*openSpan{}, byLayer: map[string]layerTime{}, byName: map[string]layerTime{}}
}

// begin opens a span under an explicit parent (0 for a root) and returns
// its id. request ties the spans of one job or request together.
func (r *recorder) begin(layer, name string, parent, request int) int {
	if r == nil {
		return 0
	}
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.beginLocked(layer, name, parent, request, t)
}

// beginLocked opens a span; one that names no request belongs to its
// parent's.
func (r *recorder) beginLocked(layer, name string, parent, request int, t tick) int {
	if p := r.open[parent]; p != nil && request == 0 {
		request = p.request
	}
	r.nextID++
	id := r.nextID
	r.open[id] = &openSpan{span: span{layer: layer, name: name, id: id, parent: parent, request: request, start: t}}
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.open[id]
	if o == nil {
		return
	}
	delete(r.open, id)
	o.end = t
	dur := o.end - o.start
	if p := r.open[o.parent]; p != nil {
		p.child += dur
	}
	self := dur - o.child
	if self < 0 {
		// A child that outlives its parent by a clock read.
		self = 0
	}
	r.byLayer[o.layer] = r.byLayer[o.layer].plus(dur, self)
	key := o.layer + "/" + o.name
	r.byName[key] = r.byName[key].plus(dur, self)
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, o.span)
	} else {
		r.dropped++
	}
}

// push opens a span whose parent is the innermost span pushed and not yet
// popped. Only the single-goroutine workloads use the stack; the serving
// workloads pass parents explicitly.
func (r *recorder) push(layer, name string, request int) {
	if r == nil {
		return
	}
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, r.beginLocked(layer, name, parent, request, t))
}

// pop closes the innermost pushed span.
func (r *recorder) pop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	n := len(r.stack)
	if n == 0 {
		r.mu.Unlock()
		return
	}
	id := r.stack[n-1]
	r.stack = r.stack[:n-1]
	r.mu.Unlock()
	r.end(id)
}

// top returns the innermost pushed span, for goroutines that parent their
// spans explicitly.
func (r *recorder) top() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return 0
}

// reset forgets every finished span: what warm-up recorded is not part of
// the measured passes.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kept, r.dropped = nil, 0
	r.byLayer, r.byName = map[string]layerTime{}, map[string]layerTime{}
}

// layer returns what a layer did, zero if it recorded no span.
func (r *recorder) layer(name string) layerTime {
	if r == nil {
		return layerTime{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byLayer[name]
}

// named returns what the spans of one name in a layer did.
func (r *recorder) named(layer, name string) layerTime {
	if r == nil {
		return layerTime{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[layer+"/"+name]
}

// spanCount returns the number of spans finished so far.
func (r *recorder) spanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.kept) + r.dropped
}

// traceFile renders the kept spans as Chrome trace-event JSON: one
// process per layer, one thread per span name, complete ("X") events
// carrying id, parent and request as args.
func (r *recorder) traceFile() *obs.TraceFile {
	r.mu.Lock()
	spans := append([]span(nil), r.kept...)
	dropped := r.dropped
	r.mu.Unlock()

	tf := &obs.TraceFile{DisplayTimeUnit: "ms", TraceEvents: []obs.TraceEvent{}}
	pids := map[string]int{}
	tids := map[string]int{}
	var events []obs.TraceEvent
	for _, s := range spans {
		pid, ok := pids[s.layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.layer] = pid
			tf.TraceEvents = append(tf.TraceEvents, obs.TraceEvent{Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": s.layer}})
		}
		key := s.layer + "/" + s.name
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
			tf.TraceEvents = append(tf.TraceEvents, obs.TraceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": s.name}})
		}
		dur := float64(s.end-s.start) / 1e3
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.request != 0 {
			args["request"] = s.request
		}
		events = append(events, obs.TraceEvent{Name: s.name, Cat: s.layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: &dur, PID: pid, TID: tid, Args: args})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	if dropped > 0 && len(events) > 0 {
		last := events[len(events)-1]
		events = append(events, obs.TraceEvent{Name: "spans not kept", Cat: "bench", Ph: "i", S: "t",
			TS: last.TS, PID: last.PID, TID: last.TID, Args: map[string]any{"dropped": dropped}})
	}
	tf.TraceEvents = append(tf.TraceEvents, events...)
	return tf
}

// writeTrace writes the trace to path and checks that what was written
// parses and validates as a trace-event document.
func (r *recorder) writeTrace(path string) error {
	data, err := json.Marshal(r.traceFile())
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		return err
	}
	if err := obs.ValidateTrace(tf); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}
