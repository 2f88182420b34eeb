package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer records spans and instants onto named tracks and exports them
// as Chrome trace-event JSON (the array-of-events format that
// chrome://tracing and Perfetto load). Each track maps to one (pid,
// tid) pair: the track's process groups related tracks ("campaign",
// "mpi", "lease") and the track name is the lane within it ("worker
// 00", "w1 rank 3", owner name).
//
// Every track buffers events in its own fixed-size ring under its own
// mutex, so concurrent writers on different tracks never contend and a
// long run cannot grow memory without bound — the ring keeps the most
// recent events and counts what it dropped.
type Tracer struct {
	capacity int
	epoch    time.Time
	now      func() int64 // ns since epoch; nil means wall clock

	mu     sync.Mutex
	tracks []*Track
	index  map[trackKey]*Track
}

type trackKey struct{ process, name string }

// NewTracer returns a tracer whose tracks buffer up to capacity events
// each. Timestamps count from the call to NewTracer.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTrackCapacity
	}
	//repolint:allow wallclock -- span timestamps are wall-clock by design; traces are write-only observability, never simulation input
	return &Tracer{capacity: capacity, epoch: time.Now(), index: map[trackKey]*Track{}}
}

// NewTracerWithClock is NewTracer with an injected clock returning
// nanoseconds since the trace epoch. Tests use it to produce
// byte-stable golden traces.
func NewTracerWithClock(capacity int, clock func() int64) *Tracer {
	t := NewTracer(capacity)
	t.now = clock
	return t
}

func (t *Tracer) clock() int64 {
	if t.now != nil {
		return t.now()
	}
	//repolint:allow wallclock -- span timestamps are wall-clock by design; tests inject a fixed clock for byte-stable goldens
	return int64(time.Since(t.epoch))
}

// Track returns the track for (process, name), creating it on first
// use. Returns nil on a nil tracer; all Track methods accept nil.
func (t *Tracer) Track(process, name string) *Track {
	if t == nil {
		return nil
	}
	k := trackKey{process, name}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr := t.index[k]; tr != nil {
		return tr
	}
	tr := &Track{tracer: t, process: process, name: name, capacity: t.capacity}
	t.index[k] = tr
	t.tracks = append(t.tracks, tr)
	return tr
}

// Arg is one key/value annotation on an event.
type Arg struct {
	Name  string
	Value any
}

// Event is one recorded trace event. TS and Dur are nanoseconds since
// the tracer epoch; Phase follows the Chrome trace-event phases this
// package emits ('X' complete, 'i' instant).
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TS    int64
	Dur   int64
	Args  []Arg
}

// Track is one trace lane. A nil *Track records nothing.
type Track struct {
	tracer   *Tracer
	process  string
	name     string
	capacity int

	mu      sync.Mutex
	ring    []Event
	head    int    // next overwrite position once the ring is full
	dropped uint64 // events overwritten
}

func (tr *Track) record(ev Event) {
	tr.mu.Lock()
	switch {
	case len(tr.ring) < tr.capacity:
		// The ring grows geometrically up to its capacity instead of
		// allocating it all up front: idle tracks (ranks that never
		// communicate) then cost one small struct, not a full ring.
		if len(tr.ring) == cap(tr.ring) {
			grown := cap(tr.ring) * 2
			if grown == 0 {
				grown = 64
			}
			if grown > tr.capacity {
				grown = tr.capacity
			}
			next := make([]Event, len(tr.ring), grown)
			copy(next, tr.ring)
			tr.ring = next
		}
		tr.ring = append(tr.ring, ev)
	default:
		tr.ring[tr.head] = ev
		tr.head = (tr.head + 1) % len(tr.ring)
		tr.dropped++
	}
	tr.mu.Unlock()
}

// Instant records a zero-duration marker event.
func (tr *Track) Instant(cat, name string, args ...Arg) {
	if tr == nil {
		return
	}
	tr.record(Event{Name: name, Cat: cat, Phase: 'i', TS: tr.tracer.clock(), Args: args})
}

// Span records a complete event covering [start, start+dur), both in
// nanoseconds since the tracer epoch. Callers that already measured a
// duration use this; callers bracketing live code use Begin/End.
func (tr *Track) Span(cat, name string, start, dur int64, args ...Arg) {
	if tr == nil {
		return
	}
	tr.record(Event{Name: name, Cat: cat, Phase: 'X', TS: start, Dur: dur, Args: args})
}

// Now returns the tracer's clock reading, or 0 on a nil track. Use it
// with Span when bracketing code that measures itself.
func (tr *Track) Now() int64 {
	if tr == nil {
		return 0
	}
	return tr.tracer.clock()
}

// Begin opens a span; End closes and records it. The returned value is
// a cheap handle — no allocation, nothing recorded until End.
func (tr *Track) Begin(cat, name string) SpanHandle {
	if tr == nil {
		return SpanHandle{}
	}
	return SpanHandle{track: tr, cat: cat, name: name, start: tr.tracer.clock()}
}

// SpanHandle is an open span returned by Track.Begin. The zero value
// (and any handle from a nil track) is inert.
type SpanHandle struct {
	track *Track
	cat   string
	name  string
	start int64
}

// End records the span opened by Begin, annotated with args.
func (s SpanHandle) End(args ...Arg) {
	if s.track == nil {
		return
	}
	end := s.track.tracer.clock()
	s.track.record(Event{Name: s.name, Cat: s.cat, Phase: 'X', TS: s.start, Dur: end - s.start, Args: args})
}

// snapshot returns the track's events in record order plus the drop
// count. A nonzero drop count means the ring rotated, so record order
// starts at head.
func (tr *Track) snapshot() ([]Event, uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Event, 0, len(tr.ring))
	if tr.dropped > 0 {
		out = append(out, tr.ring[tr.head:]...)
		out = append(out, tr.ring[:tr.head]...)
	} else {
		out = append(out, tr.ring...)
	}
	return out, tr.dropped
}

// TraceEvent is one event in the exported (and parsed) Chrome
// trace-event JSON. Timestamps and durations are microseconds, per the
// format.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the exported document: the object form of the Chrome
// trace-event format.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func usPtr(ns int64) *float64 {
	v := float64(ns) / 1e3
	return &v
}

func argMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Name] = a.Value
	}
	return m
}

// Export snapshots every track into a TraceFile. Processes get pids in
// first-registration order starting at 1; tracks get tids in
// first-registration order within their process. Metadata events name
// both, and events are sorted by (ts, pid, tid) so equal inputs yield
// equal bytes.
func (t *Tracer) Export() *TraceFile {
	tf := &TraceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	if t == nil {
		return tf
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()

	pids := map[string]int{}
	tids := map[string]int{} // per-process next tid
	var meta, events []TraceEvent
	for _, tr := range tracks {
		pid, ok := pids[tr.process]
		if !ok {
			pid = len(pids) + 1
			pids[tr.process] = pid
			meta = append(meta, TraceEvent{Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": tr.process}})
		}
		tids[tr.process]++
		tid := tids[tr.process]
		meta = append(meta, TraceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": tr.name}})
		evs, dropped := tr.snapshot()
		for _, ev := range evs {
			te := TraceEvent{Name: ev.Name, Cat: ev.Cat, Ph: string(ev.Phase),
				TS: float64(ev.TS) / 1e3, PID: pid, TID: tid, Args: argMap(ev.Args)}
			switch ev.Phase {
			case 'X':
				te.Dur = usPtr(ev.Dur)
			case 'i':
				te.S = "t"
			}
			events = append(events, te)
		}
		if dropped > 0 {
			events = append(events, TraceEvent{Name: "ring overflow", Cat: "obs", Ph: "i",
				TS: 0, PID: pid, TID: tid, S: "t",
				Args: map[string]any{"dropped": dropped}})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.TID < b.TID
	})
	tf.TraceEvents = append(meta, events...)
	return tf
}

// WriteTrace exports the tracer and writes the JSON document to w.
func (t *Tracer) WriteTrace(w io.Writer) error { return t.Export().write(w) }

// write renders the document as WriteTrace writes it: indented one space
// per level, with a trailing newline.
func (tf *TraceFile) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// WriteTraceFile writes the trace to path (the -trace flag of the commands).
func (t *Tracer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseTrace reads a Chrome trace-event JSON document produced by
// WriteTrace (or any compatible tool emitting the object form).
func ParseTrace(data []byte) (*TraceFile, error) {
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("obs: parse trace: %w", err)
	}
	return &tf, nil
}

// ValidateTrace checks the structural rules chrome://tracing and
// Perfetto rely on: every event has a name and a known phase, complete
// events carry a non-negative duration, timestamps are non-negative,
// and metadata names every (pid, tid) that events reference.
func ValidateTrace(tf *TraceFile) error {
	if tf == nil {
		return fmt.Errorf("obs: nil trace")
	}
	namedProc := map[int]bool{}
	namedThread := map[[2]int]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			switch ev.Name {
			case "process_name":
				namedProc[ev.PID] = true
			case "thread_name":
				namedThread[[2]int{ev.PID, ev.TID}] = true
			}
		}
	}
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("obs: event %d has no name", i)
		}
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("obs: complete event %d (%q) has no valid dur", i, ev.Name)
			}
		case "i", "B", "E", "b", "e", "C":
			// fine
		default:
			return fmt.Errorf("obs: event %d (%q) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			return fmt.Errorf("obs: event %d (%q) has negative ts", i, ev.Name)
		}
		if !namedProc[ev.PID] {
			return fmt.Errorf("obs: event %d (%q) references unnamed pid %d", i, ev.Name, ev.PID)
		}
		if !namedThread[[2]int{ev.PID, ev.TID}] {
			return fmt.Errorf("obs: event %d (%q) references unnamed tid %d/%d", i, ev.Name, ev.PID, ev.TID)
		}
	}
	return nil
}

// Processes returns the distinct process names in metadata order.
func (tf *TraceFile) Processes() []string {
	var out []string
	seen := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if name, ok := ev.Args["name"].(string); ok && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}
