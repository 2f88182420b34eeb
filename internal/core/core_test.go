package core

import (
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
	events  map[string]float64
}

func newFakeMeas() *fakeMeas { return &fakeMeas{events: map[string]float64{}} }

func (f *fakeMeas) StartTimer(name, group string)    { f.started = append(f.started, name) }
func (f *fakeMeas) StopTimer(name string)            { f.stopped = append(f.stopped, name) }
func (f *fakeMeas) SetGroupEnabled(string, bool)     {}
func (f *fakeMeas) TriggerEvent(n string, v float64) { f.events[n] += v }
func (f *fakeMeas) MetricNames() []string            { return []string{"WALL_CLOCK", "PAPI_FP_OPS"} }
func (f *fakeMeas) QueryMetrics() []float64          { return []float64{f.now, f.flops} }
func (f *fakeMeas) GroupInclusive(group string) float64 {
	if group == "MPI" {
		return f.mpi
	}
	return 0
}
func (f *fakeMeas) Now() float64 { return f.now }

func TestMastermindRecordsInvocation(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	mm.StartMonitoring("sc_proxy::compute()", []Param{{Name: "Q", Value: 4096}, {Name: "mode", Value: 1}})
	meas.now += 250
	meas.mpi += 40
	meas.flops += 1e6
	mm.StopMonitoring("sc_proxy::compute()")

	rec := mm.Record("sc_proxy::compute()")
	if rec == nil || len(rec.Invocations) != 1 {
		t.Fatalf("record missing or wrong count: %+v", rec)
	}
	inv := rec.Invocations[0]
	if inv.WallUS != 250 {
		t.Errorf("wall = %g, want 250", inv.WallUS)
	}
	if inv.MPIUS != 40 {
		t.Errorf("mpi = %g, want 40", inv.MPIUS)
	}
	if inv.ComputeUS != 210 {
		t.Errorf("compute = %g, want 210", inv.ComputeUS)
	}
	if q, ok := inv.Param("Q"); !ok || q != 4096 {
		t.Errorf("Q param = %g/%v", q, ok)
	}
	if inv.MetricDeltas[1] != 1e6 {
		t.Errorf("FP_OPS delta = %g, want 1e6", inv.MetricDeltas[1])
	}
	if _, ok := inv.Param("nonexistent"); ok {
		t.Error("unknown param reported present")
	}
}

func TestMastermindCumulativeSnapshots(t *testing.T) {
	// Two invocations: each must see only its own delta even though TAU
	// counters are cumulative.
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	for i, d := range []float64{100, 300} {
		mm.StartMonitoring("m()", []Param{{Name: "Q", Value: float64(i)}})
		meas.now += d
		mm.StopMonitoring("m()")
	}
	rec := mm.Record("m()")
	if rec.Invocations[0].WallUS != 100 || rec.Invocations[1].WallUS != 300 {
		t.Errorf("walls = %g/%g, want 100/300",
			rec.Invocations[0].WallUS, rec.Invocations[1].WallUS)
	}
}

func TestMastermindTimerBracketsInvocation(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	mm.StartMonitoring("x()", nil)
	mm.StopMonitoring("x()")
	if len(meas.started) != 1 || meas.started[0] != "x()" {
		t.Errorf("started timers = %v", meas.started)
	}
	if len(meas.stopped) != 1 || meas.stopped[0] != "x()" {
		t.Errorf("stopped timers = %v", meas.stopped)
	}
}

func TestMastermindReentryPanics(t *testing.T) {
	mm := NewMastermind(newFakeMeas())
	mm.StartMonitoring("a()", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant StartMonitoring did not panic")
		}
	}()
	mm.StartMonitoring("a()", nil)
}

func TestMastermindStopWithoutStartPanics(t *testing.T) {
	mm := NewMastermind(newFakeMeas())
	defer func() {
		if recover() == nil {
			t.Fatal("StopMonitoring without start did not panic")
		}
	}()
	mm.StopMonitoring("never()")
}

func TestNestedMonitoringAttributesMPIInclusively(t *testing.T) {
	// Outer monitored region contains an inner one plus MPI time: the
	// outer record's MPI time includes the inner's (inclusive semantics).
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	mm.StartMonitoring("outer()", nil)
	meas.now += 10
	mm.StartMonitoring("inner()", nil)
	meas.now += 50
	meas.mpi += 30
	mm.StopMonitoring("inner()")
	meas.now += 5
	mm.StopMonitoring("outer()")
	outer := mm.Record("outer()").Invocations[0]
	inner := mm.Record("inner()").Invocations[0]
	if inner.MPIUS != 30 || inner.WallUS != 50 {
		t.Errorf("inner = %+v", inner)
	}
	if outer.MPIUS != 30 || outer.WallUS != 65 {
		t.Errorf("outer = %+v", outer)
	}
}

func TestRecordsOrderAndWriteCSV(t *testing.T) {
	meas := newFakeMeas()
	mm := NewMastermind(meas)
	mm.StartMonitoring("b()", []Param{{Name: "Q", Value: 7}})
	meas.now += 3
	mm.StopMonitoring("b()")
	mm.StartMonitoring("a()", nil)
	mm.StopMonitoring("a()")
	recs := mm.Records()
	if len(recs) != 2 || recs[0].Method != "b()" || recs[1].Method != "a()" {
		t.Fatalf("records order wrong: %v", recs)
	}
	var sb strings.Builder
	for _, rec := range recs {
		if err := rec.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"method,invocation", "b(),0", ",Q", "wall_us", "d_PAPI_FP_OPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestCallTrace(t *testing.T) {
	mm := NewMastermind(newFakeMeas())
	mm.RecordCall("rk20", "icc_proxy", "ghostUpdate")
	mm.RecordCall("rk20", "icc_proxy", "ghostUpdate")
	mm.RecordCall("inviscidflux0", "sc_proxy", "compute")
	edges := mm.Edges()
	if edges[CallEdge{Caller: "rk20", Callee: "icc_proxy", Method: "ghostUpdate"}] != 2 {
		t.Errorf("edges = %v", edges)
	}
	if len(edges) != 2 || edges[CallEdge{Caller: "inviscidflux0", Callee: "sc_proxy", Method: "compute"}] != 1 {
		t.Errorf("edges = %v", edges)
	}
}
