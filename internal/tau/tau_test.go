package tau

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// fakeClock is a manually advanced virtual clock for tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64   { return c.t }
func (c *fakeClock) tick(d float64) { c.t += d }
func newProfile() (*Profile, *fakeClock) {
	c := &fakeClock{}
	return NewProfile(c.now), c
}

func TestBasicStartStop(t *testing.T) {
	p, c := newProfile()
	p.Start("main()", "APP")
	c.tick(100)
	p.Stop("main()")
	tm := p.Lookup("main()")
	if tm == nil {
		t.Fatal("timer not created")
	}
	if tm.Inclusive() != 100 || tm.Exclusive() != 100 {
		t.Errorf("incl/excl = %g/%g, want 100/100", tm.Inclusive(), tm.Exclusive())
	}
	if tm.Calls() != 1 {
		t.Errorf("calls = %d, want 1", tm.Calls())
	}
	if got := tm.MicrosPerCall(); got != 100 {
		t.Errorf("us/call = %g, want 100", got)
	}
}

func TestNestedExclusive(t *testing.T) {
	p, c := newProfile()
	p.Start("outer", "APP")
	c.tick(10)
	p.Start("inner", "APP")
	c.tick(30)
	p.Stop("inner")
	c.tick(5)
	p.Stop("outer")

	outer, inner := p.Lookup("outer"), p.Lookup("inner")
	if outer.Inclusive() != 45 {
		t.Errorf("outer inclusive = %g, want 45", outer.Inclusive())
	}
	if outer.Exclusive() != 15 {
		t.Errorf("outer exclusive = %g, want 15", outer.Exclusive())
	}
	if inner.Inclusive() != 30 || inner.Exclusive() != 30 {
		t.Errorf("inner incl/excl = %g/%g, want 30/30", inner.Inclusive(), inner.Exclusive())
	}
}

func TestRecursiveTimerCountsOutermostInclusive(t *testing.T) {
	p, c := newProfile()
	p.Start("rec", "APP")
	c.tick(10)
	p.Start("rec", "APP") // re-entrant
	c.tick(20)
	p.Stop("rec")
	c.tick(10)
	p.Stop("rec")
	tm := p.Lookup("rec")
	if tm.Inclusive() != 40 {
		t.Errorf("recursive inclusive = %g, want 40 (outermost only)", tm.Inclusive())
	}
	if tm.Exclusive() != 40 {
		t.Errorf("recursive exclusive = %g, want 40 (all self time)", tm.Exclusive())
	}
	if tm.Calls() != 2 {
		t.Errorf("calls = %d, want 2", tm.Calls())
	}
}

func TestMultipleInvocationsAccumulate(t *testing.T) {
	p, c := newProfile()
	for i := 0; i < 4; i++ {
		p.Start("f", "APP")
		c.tick(25)
		p.Stop("f")
	}
	tm := p.Lookup("f")
	if tm.Inclusive() != 100 || tm.Calls() != 4 {
		t.Errorf("incl=%g calls=%d, want 100/4", tm.Inclusive(), tm.Calls())
	}
}

func TestStopMismatchPanics(t *testing.T) {
	p, c := newProfile()
	p.Start("a", "APP")
	c.tick(1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Stop did not panic")
		}
	}()
	p.Stop("b")
}

func TestStopEmptyStackPanics(t *testing.T) {
	p, _ := newProfile()
	defer func() {
		if recover() == nil {
			t.Fatal("Stop with empty stack did not panic")
		}
	}()
	p.Stop("never-started")
}

func TestTimerGroupConflictPanics(t *testing.T) {
	p, _ := newProfile()
	p.Timer("t", "A")
	defer func() {
		if recover() == nil {
			t.Fatal("re-creating timer in different group did not panic")
		}
	}()
	p.Timer("t", "B")
}

func TestGroupDisable(t *testing.T) {
	p, c := newProfile()
	p.SetGroupEnabled("MPI", false)
	if p.GroupEnabled("MPI") {
		t.Fatal("group should be disabled")
	}
	p.Start("MPI_Send()", "MPI")
	c.tick(50)
	p.Stop("MPI_Send()")
	tm := p.Lookup("MPI_Send()")
	if tm == nil {
		t.Fatal("disabled Start should still register the timer identity")
	}
	if tm.Calls() != 0 || tm.Inclusive() != 0 {
		t.Errorf("disabled timer accumulated calls=%d incl=%g", tm.Calls(), tm.Inclusive())
	}
	p.SetGroupEnabled("MPI", true)
	p.Start("MPI_Send()", "MPI")
	c.tick(7)
	p.Stop("MPI_Send()")
	if tm.Inclusive() != 7 || tm.Calls() != 1 {
		t.Errorf("re-enabled timer incl=%g calls=%d, want 7/1", tm.Inclusive(), tm.Calls())
	}
}

func TestDisableRunningGroupPanics(t *testing.T) {
	p, _ := newProfile()
	p.Start("MPI_Recv()", "MPI")
	defer func() {
		if recover() == nil {
			t.Fatal("disabling group with running timer did not panic")
		}
	}()
	p.SetGroupEnabled("MPI", false)
}

func TestGroupInclusiveSumsMPITime(t *testing.T) {
	p, c := newProfile()
	p.Start("app", "APP")
	c.tick(10)
	p.Start("MPI_Isend()", "MPI")
	c.tick(5)
	p.Stop("MPI_Isend()")
	p.Start("MPI_Waitsome()", "MPI")
	c.tick(20)
	p.Stop("MPI_Waitsome()")
	p.Stop("app")
	if got := p.GroupInclusive("MPI"); got != 25 {
		t.Errorf("GroupInclusive(MPI) = %g, want 25", got)
	}
	if got := p.GroupCalls("MPI"); got != 2 {
		t.Errorf("GroupCalls(MPI) = %d, want 2", got)
	}
	if got := p.GroupInclusive("APP"); got != 35 {
		t.Errorf("GroupInclusive(APP) = %g, want 35", got)
	}
}

func TestEvents(t *testing.T) {
	p, _ := newProfile()
	for _, v := range []float64{4, 1, 7, 4} {
		p.TriggerEvent("message size", v)
	}
	e := p.Event("message size")
	if e == nil {
		t.Fatal("event not recorded")
	}
	if e.Count() != 4 || e.Min() != 1 || e.Max() != 7 || e.Mean() != 4 {
		t.Errorf("event stats count=%d min=%g max=%g mean=%g", e.Count(), e.Min(), e.Max(), e.Mean())
	}
	want := math.Sqrt((16+1+49+16)/4.0 - 16)
	if math.Abs(e.StdDev()-want) > 1e-12 {
		t.Errorf("stddev = %g, want %g", e.StdDev(), want)
	}
	if len(p.Events()) != 1 {
		t.Errorf("Events() len = %d, want 1", len(p.Events()))
	}
}

func TestEmptyEventAccessors(t *testing.T) {
	e := &Event{name: "x"}
	if e.Min() != 0 || e.Max() != 0 || e.Mean() != 0 || e.StdDev() != 0 {
		t.Error("empty event accessors should all be 0")
	}
}

func TestMetricsVector(t *testing.T) {
	c := &fakeClock{}
	var flops float64
	p := NewProfile(c.now)
	p.RegisterMetric("PAPI_FP_OPS", func() float64 { return flops })
	p.Start("k", "APP")
	c.tick(10)
	flops += 500
	p.Start("sub", "APP")
	c.tick(5)
	flops += 100
	p.Stop("sub")
	p.Stop("k")
	k := p.Lookup("k")
	if got := k.InclusiveMetric(1); got != 600 {
		t.Errorf("k inclusive FP_OPS = %g, want 600", got)
	}
	if got := k.ExclusiveMetric(1); got != 500 {
		t.Errorf("k exclusive FP_OPS = %g, want 500", got)
	}
	if names := p.MetricNames(); len(names) != 2 || names[0] != WallClock || names[1] != "PAPI_FP_OPS" {
		t.Errorf("MetricNames = %v", names)
	}
	if v, ok := p.CounterValue("PAPI_FP_OPS"); !ok || v != 600 {
		t.Errorf("CounterValue = %g,%v want 600,true", v, ok)
	}
	if _, ok := p.CounterValue("NO_SUCH"); ok {
		t.Error("unknown counter should report !ok")
	}
	if snap := p.Snapshot(nil); len(snap) != 2 {
		t.Errorf("Snapshot len = %d, want 2", len(snap))
	}
}

func TestRegisterMetricAfterTimersPanics(t *testing.T) {
	p, _ := newProfile()
	p.Timer("t", "APP")
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterMetric after timer creation did not panic")
		}
	}()
	p.RegisterMetric("late", func() float64 { return 0 })
}

func TestRunningAndDepth(t *testing.T) {
	p, _ := newProfile()
	if p.Running() != "" || p.Depth() != 0 {
		t.Error("fresh profile should have empty stack")
	}
	p.Start("a", "APP")
	p.Start("b", "APP")
	if p.Running() != "b" || p.Depth() != 2 {
		t.Errorf("Running=%q Depth=%d, want b/2", p.Running(), p.Depth())
	}
	p.Stop("b")
	p.Stop("a")
}

func TestSummaryOrderingAndPercent(t *testing.T) {
	p, c := newProfile()
	p.Start("main", "APP")
	c.tick(10)
	p.Start("hot", "APP")
	c.tick(60)
	p.Stop("hot")
	p.Start("cold", "APP")
	c.tick(30)
	p.Stop("cold")
	p.Stop("main")
	rows := p.Summary()
	if len(rows) != 3 {
		t.Fatalf("summary rows = %d, want 3", len(rows))
	}
	if rows[0].Name != "main" || rows[1].Name != "hot" || rows[2].Name != "cold" {
		t.Errorf("row order = %s,%s,%s", rows[0].Name, rows[1].Name, rows[2].Name)
	}
	if rows[0].PercentTime != 100 {
		t.Errorf("top row %%time = %g, want 100", rows[0].PercentTime)
	}
	if want := 60.0; rows[1].PercentTime != want {
		t.Errorf("hot %%time = %g, want %g", rows[1].PercentTime, want)
	}
	if rows[0].ExclusiveUS != 10 {
		t.Errorf("main exclusive = %g, want 10", rows[0].ExclusiveUS)
	}
}

func TestMeanSummaryAveragesAcrossRanks(t *testing.T) {
	mk := func(d float64) *Profile {
		p, c := newProfile()
		p.Start("work", "APP")
		c.tick(d)
		p.Stop("work")
		return p
	}
	rows := MeanSummary([]*Profile{mk(100), mk(200), mk(300)})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].InclusiveUS != 200 {
		t.Errorf("mean inclusive = %g, want 200", rows[0].InclusiveUS)
	}
	if rows[0].Calls != 1 {
		t.Errorf("mean calls = %g, want 1", rows[0].Calls)
	}
}

func TestMeanSummaryDisjointTimers(t *testing.T) {
	p1, c1 := newProfile()
	p1.Start("only-rank0", "APP")
	c1.tick(90)
	p1.Stop("only-rank0")
	p2, _ := newProfile()
	rows := MeanSummary([]*Profile{p1, p2})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].InclusiveUS != 45 {
		t.Errorf("mean inclusive = %g, want 45 (90 over 2 ranks)", rows[0].InclusiveUS)
	}
	if rows[0].Calls != 0.5 {
		t.Errorf("mean calls = %g, want 0.5", rows[0].Calls)
	}
}

func TestMeanSummaryEmpty(t *testing.T) {
	if rows := MeanSummary(nil); rows != nil {
		t.Errorf("MeanSummary(nil) = %v, want nil", rows)
	}
}

func TestWriteFunctionSummaryFormat(t *testing.T) {
	p, c := newProfile()
	p.Start("int main(int, char **)", "APP")
	c.tick(2 * 60 * 1e6) // 2 minutes
	p.Start("MPI_Waitsome()", "MPI")
	c.tick(30e6)
	p.Stop("MPI_Waitsome()")
	p.Stop("int main(int, char **)")
	var sb strings.Builder
	if err := WriteFunctionSummary(&sb, "mean", p.Summary()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"FUNCTION SUMMARY (mean):",
		"%Time", "usec/call",
		"int main(int, char **)",
		"MPI_Waitsome()",
		"2:30.000", // 150 s inclusive formatted m:ss.mmm
		"100.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q\n%s", want, out)
		}
	}
}

func TestCommaGroup(t *testing.T) {
	cases := map[int64]string{
		0: "0", 5: "5", 999: "999", 1000: "1,000",
		55244: "55,244", 1234567: "1,234,567", -5000: "-5,000",
	}
	for n, want := range cases {
		if got := commaGroup(n); got != want {
			t.Errorf("commaGroup(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFormatInclusive(t *testing.T) {
	if got := formatInclusive(55_244_000); got != "55,244" {
		t.Errorf("formatInclusive(55.244 s) = %q, want 55,244", got)
	}
	if got := formatInclusive(112_032_939); got != "1:52.033" {
		t.Errorf("formatInclusive(112.032939 s) = %q, want 1:52.033", got)
	}
}

// Property: for arbitrary well-nested timer sequences, inclusive time of the
// root equals total elapsed time and the sum of exclusive times over all
// timers equals total elapsed time.
func TestPropertyExclusivePartition(t *testing.T) {
	f := func(ticks []uint8) bool {
		p, c := newProfile()
		names := []string{"a", "b", "d"}
		p.Start("root", "APP")
		depth := 0
		open := []string{}
		for i, tk := range ticks {
			c.tick(float64(tk%50) + 1)
			switch tk % 3 {
			case 0:
				if depth < 3 {
					n := names[i%len(names)]
					// avoid accidental recursion complexity: unique per depth
					n = n + string(rune('0'+depth))
					p.Start(n, "APP")
					open = append(open, n)
					depth++
				}
			case 1:
				if depth > 0 {
					p.Stop(open[len(open)-1])
					open = open[:len(open)-1]
					depth--
				}
			}
		}
		for len(open) > 0 {
			c.tick(1)
			p.Stop(open[len(open)-1])
			open = open[:len(open)-1]
		}
		total := c.t
		p.Stop("root")
		var exclSum float64
		for _, tm := range p.Timers() {
			exclSum += tm.Exclusive()
		}
		root := p.Lookup("root")
		return math.Abs(root.Inclusive()-total) < 1e-9 && math.Abs(exclSum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: event mean always lies within [min, max].
func TestPropertyEventMeanBounded(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		p, _ := newProfile()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // avoid float64 overflow in sum of squares
			}
			p.TriggerEvent("e", v)
		}
		e := p.Event("e")
		return e.Mean() >= e.Min()-1e-9*math.Abs(e.Min()) &&
			e.Mean() <= e.Max()+1e-9*math.Abs(e.Max())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStartStopAllocatesNothingWarm: once the timers exist and the stack has
// reached its depth, a Start/Stop pair — nested, and re-entering a running
// timer — reuses the frame vectors a previous Stop left in the stack's
// backing array and the profile's stop buffer. Every MPI entry point of every
// simulated rank pays this pair, so an allocation that comes back here is
// three per MPI call. The reused vectors must still account exactly.
func TestStartStopAllocatesNothingWarm(t *testing.T) {
	p, c := newProfile()
	p.RegisterMetric("PAPI_FP_OPS", func() float64 { return 2 * c.t })
	pair := func() {
		p.Start("outer", "APP")
		c.tick(1)
		p.Start("MPI_Recv()", "MPI")
		c.tick(2)
		p.Start("outer", "APP") // re-entrant
		c.tick(4)
		p.Stop("outer")
		p.Stop("MPI_Recv()")
		p.Stop("outer")
	}
	pair() // warm: creates the timers and grows the stack to depth 3
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("warmed nested Start/Stop allocates %v times per run, want 0", n)
	}
	runs := float64(p.Lookup("MPI_Recv()").Calls())
	outer, recv := p.Lookup("outer"), p.Lookup("MPI_Recv()")
	if outer.Inclusive() != 7*runs || outer.Exclusive() != 5*runs || recv.Inclusive() != 6*runs || recv.Exclusive() != 2*runs {
		t.Errorf("after %v runs: outer incl/excl %g/%g, recv %g/%g; want 7/5 and 6/2 per run",
			runs, outer.Inclusive(), outer.Exclusive(), recv.Inclusive(), recv.Exclusive())
	}
	if got := recv.ExclusiveMetric(1); got != 4*runs {
		t.Errorf("recv exclusive PAPI_FP_OPS = %g, want %g", got, 4*runs)
	}
}
