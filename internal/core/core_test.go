package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fakeMeas is a scriptable MeasurementPort for unit tests.
type fakeMeas struct {
	now     float64
	mpi     float64
	flops   float64
	started []string
	stopped []string
}

func newFakeMeas() *fakeMeas { return &fakeMeas{} }

func (f *fakeMeas) StartTimer(name, group string) { f.started = append(f.started, name) }
func (f *fakeMeas) StopTimer(name string)         { f.stopped = append(f.stopped, name) }
func (f *fakeMeas) MetricNames() []string         { return []string{"WALL_CLOCK", "PAPI_FP_OPS"} }
func (f *fakeMeas) QueryMetrics() []float64       { return []float64{f.now, f.flops} }
func (f *fakeMeas) GroupInclusive(group string) float64 {
	if group == "MPI" {
		return f.mpi
	}
	return 0
}

// edge is the call edge whose record is named p::method().
func edge(method string) CallEdge { return CallEdge{Caller: "p", Callee: "port", Method: method} }

func TestMastermindRecordsInvocation(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	sc := CallEdge{Caller: "sc_proxy", Callee: "states", Method: "compute"}
	rec := mm.Monitor(sc, "Q", "mode")
	rec.Start(4096, 1)
	meas.now += 250
	meas.mpi += 40
	meas.flops += 1e6
	rec.Stop()

	if got := mm.Record("sc_proxy::compute()"); got != rec || rec.Len() != 1 || rec.Edge != sc {
		t.Fatalf("record missing, wrong count or wrong edge: %+v", got)
	}
	if rec.WallUS()[0] != 250 {
		t.Errorf("wall = %g, want 250", rec.WallUS()[0])
	}
	if rec.MPIUS[0] != 40 {
		t.Errorf("mpi = %g, want 40", rec.MPIUS[0])
	}
	// Compute time is wall minus MPI, written as the compute_us column.
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "sc_proxy::compute(),0,4096,1,250,40,210,250,1e+06\n"; !strings.HasSuffix(sb.String(), want) {
		t.Errorf("CSV %q, want a row %q", sb.String(), want)
	}
	if q := rec.Param("Q"); len(q) != 1 || q[0] != 4096 {
		t.Errorf("Q column = %v", q)
	}
	if rec.Deltas[1][0] != 1e6 {
		t.Errorf("FP_OPS delta = %g, want 1e6", rec.Deltas[1][0])
	}
	if rec.Param("nonexistent") != nil {
		t.Error("unknown param reported present")
	}
	if mm.Monitor(sc) != rec {
		t.Error("a second Monitor of the method opened a second record")
	}
}

func TestMastermindCumulativeSnapshots(t *testing.T) {
	// Two invocations: each must see only its own delta even though TAU
	// counters are cumulative.
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	rec := mm.Monitor(edge("m"), "Q")
	for i, d := range []float64{100, 300} {
		rec.Start(float64(i))
		meas.now += d
		rec.Stop()
	}
	if wall := rec.WallUS(); wall[0] != 100 || wall[1] != 300 {
		t.Errorf("walls = %g/%g, want 100/300", wall[0], wall[1])
	}
}

func TestMastermindTimerBracketsInvocation(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	rec := mm.Monitor(edge("x"))
	if len(meas.started) != 0 {
		t.Errorf("opening a record started timers %v", meas.started)
	}
	rec.Start()
	rec.Stop()
	if len(meas.started) != 1 || meas.started[0] != "p::x()" {
		t.Errorf("started timers = %v", meas.started)
	}
	if len(meas.stopped) != 1 || meas.stopped[0] != "p::x()" {
		t.Errorf("stopped timers = %v", meas.stopped)
	}
}

func TestMastermindReentryPanics(t *testing.T) {
	rec := NewMastermind(newFakeMeas()).Monitor(edge("a"))
	rec.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant Start did not panic")
		}
	}()
	rec.Start()
}

func TestMastermindStopWithoutStartPanics(t *testing.T) {
	rec := NewMastermind(newFakeMeas()).Monitor(edge("never"))
	defer func() {
		if recover() == nil {
			t.Fatal("Stop without start did not panic")
		}
	}()
	rec.Stop()
}

func TestNestedMonitoringAttributesMPIInclusively(t *testing.T) {
	// Outer monitored region contains an inner one plus MPI time: the
	// outer record's MPI time includes the inner's (inclusive semantics).
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	outer, inner := mm.Monitor(edge("outer")), mm.Monitor(edge("inner"))
	outer.Start()
	meas.now += 10
	inner.Start()
	meas.now += 50
	meas.mpi += 30
	inner.Stop()
	meas.now += 5
	outer.Stop()
	if inner.MPIUS[0] != 30 || inner.WallUS()[0] != 50 {
		t.Errorf("inner = %+v", inner)
	}
	if outer.MPIUS[0] != 30 || outer.WallUS()[0] != 65 {
		t.Errorf("outer = %+v", outer)
	}
}

func TestRecordsOrderAndWriteCSV(t *testing.T) {
	// Records list in order of first Start, not of opening, and a record
	// never started is not listed.
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	a, idle, b := mm.Monitor(edge("a")), mm.Monitor(edge("idle")), mm.Monitor(edge("b"), "Q")
	b.Start(7)
	meas.now += 3
	b.Stop()
	a.Start()
	a.Stop()
	recs := mm.Records()
	if len(recs) != 2 || recs[0] != b || recs[1] != a || idle.Len() != 0 {
		t.Fatalf("records order wrong: %v", recs)
	}
	var sb strings.Builder
	for _, rec := range recs {
		if err := rec.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	const want = "method,invocation,Q,wall_us,mpi_us,compute_us,d_WALL_CLOCK,d_PAPI_FP_OPS\n" +
		"p::b(),0,7,3,0,3,3,0\n" +
		"method,invocation,wall_us,mpi_us,compute_us,d_WALL_CLOCK,d_PAPI_FP_OPS\n" +
		"p::a(),0,0,0,0,0,0\n"
	if sb.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// failAfter accepts n bytes, then fails every write, counting those.
type failAfter struct{ n, failed int }

var errFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		w.failed++
		return n, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteCSVReturnsWriteErrors: however far a failing writer gets,
// WriteCSV returns its error at the first failed write and writes nothing
// after it.
func TestWriteCSVReturnsWriteErrors(t *testing.T) {
	meas := newFakeMeas()
	rec := NewMastermind(meas).Monitor(edge("m"), "Q", "mode")
	for i := range 3 {
		rec.Start(float64(i), 1)
		meas.now += 1.5
		rec.Stop()
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	for n := range sb.Len() {
		w := &failAfter{n: n}
		if err := rec.WriteCSV(w); !errors.Is(err, errFull) || w.failed != 1 {
			t.Errorf("writer failing after %d of %d bytes: error %v after %d failed writes, want %v after 1",
				n, sb.Len(), err, w.failed, errFull)
		}
	}
}

// TestByNameWrappers: StartMonitoring and StopMonitoring open the record by
// name and fill the same columns as Start and Stop.
func TestByNameWrappers(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	for i := range 2 {
		mm.StartMonitoring("p()", []Param{{Name: "Q", Value: float64(10 + i)}})
		meas.now += 2
		mm.StopMonitoring("p()")
	}
	rec := mm.Record("p()")
	if rec == nil || !reflect.DeepEqual(rec.ParamNames, []string{"Q"}) ||
		!reflect.DeepEqual(rec.Param("Q"), []float64{10, 11}) || !reflect.DeepEqual(rec.WallUS(), []float64{2, 2}) ||
		rec.Edge != (CallEdge{}) {
		t.Errorf("record = %+v", rec)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StopMonitoring of a method never started did not panic")
		}
	}()
	mm.StopMonitoring("never()")
}

// TestCallTrace: the trace is read off the records that carry an edge, each
// weighted by its invocations; a record opened by name or never started
// adds no edge.
func TestCallTrace(t *testing.T) {
	mm := NewMastermind(newFakeMeas())
	ghost := CallEdge{Caller: "icc_proxy", Callee: "mesh", Method: "ghostUpdate"}
	flux := CallEdge{Caller: "g_proxy", Callee: "flux", Method: "compute"}
	mm.Monitor(CallEdge{Caller: "sc_proxy", Callee: "states", Method: "compute"})
	for _, e := range []CallEdge{ghost, ghost, flux} {
		rec := mm.Monitor(e, "level")
		rec.Start(1)
		rec.Stop()
	}
	mm.StartMonitoring("probe()", nil)
	mm.StopMonitoring("probe()")
	if rec := mm.Record("icc_proxy::ghostUpdate()"); rec == nil || rec.Edge != ghost {
		t.Errorf("the ghost edge's record is %+v", rec)
	}
	if got, want := Trace(mm.Records()), map[CallEdge]int{ghost: 2, flux: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

// quietMeas is a MeasurementPort that allocates nothing per call, so that
// what a test counts is the record's own allocations.
type quietMeas struct{ metrics [2]float64 }

func (q *quietMeas) StartTimer(string, string)     {}
func (q *quietMeas) StopTimer(string)              {}
func (q *quietMeas) MetricNames() []string         { return []string{"WALL_CLOCK", "PAPI_FP_OPS"} }
func (q *quietMeas) QueryMetrics() []float64       { q.metrics[0]++; return q.metrics[:] }
func (q *quietMeas) GroupInclusive(string) float64 { return 0 }

// TestRecordColumnsGrowTogether pins what a record's columns cost: rows
// appended call by call allocate under twice the bytes the columns end up
// holding, because every column doubles at once, and the room left over is
// under the rows held. Grown each by its own append, the columns allocated
// several times their final bytes. Not parallel: TotalAlloc counts every
// goroutine's allocations.
func TestRecordColumnsGrowTogether(t *testing.T) {
	const calls = 5000
	rec := NewMastermind(&quietMeas{}).Monitor(CallEdge{Caller: "g_proxy", Callee: "flux", Method: "compute"}, "Q", "mode")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range calls {
		rec.Start(float64(i), 1)
		rec.Stop()
	}
	runtime.ReadMemStats(&after)
	cols := append(append([][]float64{rec.MPIUS}, rec.Params...), rec.Deltas...)
	room := cap(rec.MPIUS)
	for _, col := range cols {
		if len(col) != calls || cap(col) != room {
			t.Fatalf("a column holds %d rows with room for %d, the record %d rows with room for %d", len(col), cap(col), calls, room)
		}
	}
	if room >= 2*calls {
		t.Errorf("%d rows have room for %d", calls, room)
	}
	final := uint64(8 * room * len(cols))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*final {
		t.Errorf("%d calls allocate %d bytes, columns of %d: more than twice", calls, got, final)
	}
}
