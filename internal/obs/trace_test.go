package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// fakeClock returns a deterministic nanosecond clock stepping by step
// per reading.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

// TestTraceGolden pins the exported Chrome trace-event JSON for a fixed
// event sequence under an injected clock: the schema (traceEvents /
// displayTimeUnit / metadata / phases), the pid/tid assignment and the
// byte-stable sorting are all covered by one byte comparison.
func TestTraceGolden(t *testing.T) {
	tr := NewTracerWithClock(16, fakeClock(1000)) // 1 us per clock reading
	w0 := tr.Track("campaign", "worker 00")
	r0 := tr.Track("mpi", "w1 rank 0")
	w0.Span("job", "sweep/states", 0, 5000, Arg{Name: "status", Value: "run"})
	r0.Instant("spec", "conflict", Arg{Name: "op", Value: "MPI_Recv()"})
	sp := w0.Begin("job", "trend") // third clock reading: start=2000
	sp.End()                       // fourth: end=3000

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "campaign"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "name": "worker 00"
   }
  },
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 2,
   "tid": 0,
   "args": {
    "name": "mpi"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 2,
   "tid": 1,
   "args": {
    "name": "w1 rank 0"
   }
  },
  {
   "name": "sweep/states",
   "cat": "job",
   "ph": "X",
   "ts": 0,
   "dur": 5,
   "pid": 1,
   "tid": 1,
   "args": {
    "status": "run"
   }
  },
  {
   "name": "conflict",
   "cat": "spec",
   "ph": "i",
   "ts": 1,
   "pid": 2,
   "tid": 1,
   "s": "t",
   "args": {
    "op": "MPI_Recv()"
   }
  },
  {
   "name": "trend",
   "cat": "job",
   "ph": "X",
   "ts": 2,
   "dur": 1,
   "pid": 1,
   "tid": 1
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("trace JSON mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	tf, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tf); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
	if got := tf.Processes(); len(got) != 2 || got[0] != "campaign" || got[1] != "mpi" {
		t.Errorf("Processes() = %v, want [campaign mpi]", got)
	}
}

func TestTraceRoundTripValidates(t *testing.T) {
	tr := NewTracer(8)
	tr.Track("lease", "w1").Instant("claim", "k", Arg{Name: "state", Value: "busy"})
	tr.Track("lease", "w1").Span("hold", "k", 10, 20)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tf); err != nil {
		t.Error(err)
	}
}

// FuzzParseTrace: ParseTrace and ValidateTrace never panic, and a trace
// that parses and validates is a fixed point of writing: WriteTrace's
// rendering of it parses, validates and renders to the same bytes again.
func FuzzParseTrace(f *testing.F) {
	tr := NewTracerWithClock(4, fakeClock(1000))
	w0 := tr.Track("campaign", "worker 00")
	w0.Span("job", "sweep/states", 0, 5000, Arg{Name: "status", Value: "run"})
	tr.Track("mpi", "w1 rank 0").Instant("spec", "conflict", Arg{Name: "op", Value: "MPI_Recv()"}, Arg{Name: "rank", Value: 3})
	tr.Track("lease", "w<1>").Span("hold", "job\u2028/1", 10, 20, Arg{Name: "completed", Value: true})
	for i := 0; i < 6; i++ { // overflows w0's ring: the export reports the drop
		w0.Instant("c", "tick")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","ts":-0,"dur":1e-7,"pid":1,"tid":1,"args":{}}],"displayTimeUnit":"ms"}`))
	f.Add([]byte(`{"traceEvents":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := ParseTrace(data)
		if verr := ValidateTrace(tf); err != nil || verr != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tf.write(&first); err != nil {
			t.Fatalf("a validated trace does not write: %v", err)
		}
		again, err := ParseTrace(first.Bytes())
		if err != nil {
			t.Fatalf("the written trace does not parse: %v\n%s", err, first.Bytes())
		}
		if err := ValidateTrace(again); err != nil {
			t.Fatalf("the written trace does not validate: %v\n%s", err, first.Bytes())
		}
		if err := again.write(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewriting changed the trace (%v):\n%s\nthen\n%s", err, first.Bytes(), second.Bytes())
		}
	})
}

func TestValidateTraceRejects(t *testing.T) {
	dur := -1.0
	cases := []struct {
		name string
		tf   *TraceFile
		want string
	}{
		{"nil", nil, "nil trace"},
		{"unnamed event", &TraceFile{TraceEvents: []TraceEvent{{Ph: "i", PID: 1, TID: 1}}}, "no name"},
		{"unknown phase", &TraceFile{TraceEvents: []TraceEvent{{Name: "x", Ph: "?", PID: 1, TID: 1}}}, "unknown phase"},
		{"complete without dur", &TraceFile{TraceEvents: []TraceEvent{{Name: "x", Ph: "X", PID: 1, TID: 1}}}, "no valid dur"},
		{"negative dur", &TraceFile{TraceEvents: []TraceEvent{{Name: "x", Ph: "X", Dur: &dur, PID: 1, TID: 1}}}, "no valid dur"},
		{"unnamed pid", &TraceFile{TraceEvents: []TraceEvent{{Name: "x", Ph: "i", PID: 9, TID: 1}}}, "unnamed pid"},
	}
	for _, c := range cases {
		err := ValidateTrace(c.tf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestTrackRingOverflow checks the ring keeps the newest events and the
// export reports the drop count as an instant.
func TestTrackRingOverflow(t *testing.T) {
	tr := NewTracerWithClock(4, fakeClock(1))
	trk := tr.Track("p", "t")
	for i := 0; i < 10; i++ {
		trk.Instant("c", string(rune('a'+i)))
	}
	tf := tr.Export()
	var names []string
	var overflow map[string]any
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Name == "ring overflow" {
			overflow = ev.Args
			continue
		}
		names = append(names, ev.Name)
	}
	if want := []string{"g", "h", "i", "j"}; len(names) != 4 || names[0] != want[0] || names[3] != want[3] {
		t.Errorf("surviving events = %v, want %v", names, want)
	}
	if overflow == nil {
		t.Fatal("no ring overflow marker exported")
	}
	if d, ok := overflow["dropped"].(uint64); !ok || d != 6 {
		t.Errorf("dropped = %v (%T), want uint64 6", overflow["dropped"], overflow["dropped"])
	}
	if err := ValidateTrace(tf); err != nil {
		t.Error(err)
	}
}

// TestTraceNilSafety drives every tracer-side entry point through nil
// receivers; any panic fails the test.
func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	trk := tr.Track("p", "t")
	if trk != nil {
		t.Fatal("nil tracer returned non-nil track")
	}
	trk.Instant("c", "n")
	trk.Span("c", "n", 0, 1)
	if trk.Now() != 0 {
		t.Error("nil track Now() != 0")
	}
	sp := trk.Begin("c", "n")
	sp.End()
	(SpanHandle{}).End()
	if tf := tr.Export(); len(tf.TraceEvents) != 0 {
		t.Error("nil tracer exported events")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Error(err)
	}
}

// TestTracerConcurrent hammers one shared track and many distinct
// tracks from concurrent goroutines while a reader exports repeatedly.
// Run under -race this is the tracer's data-race proof.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	shared := tr.Track("campaign", "shared")
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			own := tr.Track("mpi", string(rune('A'+g)))
			for i := 0; i < 500; i++ {
				shared.Instant("c", "tick")
				own.Span("c", "op", int64(i), 1)
				sp := own.Begin("c", "live")
				sp.End(Arg{Name: "i", Value: i})
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := ValidateTrace(tr.Export()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if err := ValidateTrace(tr.Export()); err != nil {
		t.Error(err)
	}
}
