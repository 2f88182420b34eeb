package tau

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
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

// table copies a finished profile's timers.
func table(t *testing.T, p *Profile) []Timer {
	t.Helper()
	tab, err := p.Timers()
	if err != nil {
		t.Fatal(err)
	}
	return tab
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
	if tm.InclUS != 100 || tm.ExclUS != 100 {
		t.Errorf("incl/excl = %g/%g, want 100/100", tm.InclUS, tm.ExclUS)
	}
	if tm.Calls != 1 {
		t.Errorf("calls = %d, want 1", tm.Calls)
	}
	if got := MeanSummary(table(t, p))[0].MicrosPerCall; got != 100 {
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
	if outer.InclUS != 45 {
		t.Errorf("outer inclusive = %g, want 45", outer.InclUS)
	}
	if outer.ExclUS != 15 {
		t.Errorf("outer exclusive = %g, want 15", outer.ExclUS)
	}
	if inner.InclUS != 30 || inner.ExclUS != 30 {
		t.Errorf("inner incl/excl = %g/%g, want 30/30", inner.InclUS, inner.ExclUS)
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
	if tm.InclUS != 40 {
		t.Errorf("recursive inclusive = %g, want 40 (outermost only)", tm.InclUS)
	}
	if tm.ExclUS != 40 {
		t.Errorf("recursive exclusive = %g, want 40 (all self time)", tm.ExclUS)
	}
	if tm.Calls != 2 {
		t.Errorf("calls = %d, want 2", tm.Calls)
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
	if tm.InclUS != 100 || tm.Calls != 4 {
		t.Errorf("incl=%g calls=%d, want 100/4", tm.InclUS, tm.Calls)
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
	p.timer("t", "A")
	defer func() {
		if recover() == nil {
			t.Fatal("re-creating timer in different group did not panic")
		}
	}()
	p.timer("t", "B")
}

func TestGroupDisable(t *testing.T) {
	p, c := newProfile()
	p.SetGroupEnabled("MPI", false)
	p.Start("MPI_Send()", "MPI")
	c.tick(50)
	p.Stop("MPI_Send()")
	tm := p.Lookup("MPI_Send()")
	if tm == nil {
		t.Fatal("disabled Start should still register the timer identity")
	}
	if tm.Calls != 0 || tm.InclUS != 0 {
		t.Errorf("disabled timer accumulated calls=%d incl=%g", tm.Calls, tm.InclUS)
	}
	p.SetGroupEnabled("MPI", true)
	p.Start("MPI_Send()", "MPI")
	c.tick(7)
	p.Stop("MPI_Send()")
	if tm.InclUS != 7 || tm.Calls != 1 {
		t.Errorf("re-enabled timer incl=%g calls=%d, want 7/1", tm.InclUS, tm.Calls)
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
	if got := p.GroupInclusive("APP"); got != 35 {
		t.Errorf("GroupInclusive(APP) = %g, want 35", got)
	}
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
	rows := MeanSummary(table(t, p))
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
	mk := func(d float64) []Timer {
		p, c := newProfile()
		p.Start("work", "APP")
		c.tick(d)
		p.Stop("work")
		return table(t, p)
	}
	rows := MeanSummary(mk(100), mk(200), mk(300))
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
	rows := MeanSummary(table(t, p1), table(t, p2))
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
	if rows := MeanSummary(); rows != nil {
		t.Errorf("MeanSummary() = %v, want nil", rows)
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
	if err := WriteFunctionSummary(&sb, "mean", MeanSummary(table(t, p))); err != nil {
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
		for _, tm := range table(t, p) {
			exclSum += tm.ExclUS
		}
		root := p.Lookup("root")
		return math.Abs(root.InclUS-total) < 1e-9 && math.Abs(exclSum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStartStopAllocatesNothingWarm: once the timers exist and the stack has
// reached its depth, a Start/Stop pair — nested, and re-entering a running
// timer — pushes over the frame a previous Stop left in the stack's backing
// array. Every MPI entry point of every simulated rank pays this pair, so an
// allocation that comes back here is one per MPI call. The reused frames
// must still account exactly.
func TestStartStopAllocatesNothingWarm(t *testing.T) {
	p, c := newProfile()
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
	runs := float64(p.Lookup("MPI_Recv()").Calls)
	outer, recv := p.Lookup("outer"), p.Lookup("MPI_Recv()")
	if outer.InclUS != 7*runs || outer.ExclUS != 5*runs || recv.InclUS != 6*runs || recv.ExclUS != 2*runs {
		t.Errorf("after %v runs: outer incl/excl %g/%g, recv %g/%g; want 7/5 and 6/2 per run",
			runs, outer.InclUS, outer.ExclUS, recv.InclUS, recv.ExclUS)
	}
}

// TestStartStopReadsNoMetricSource: timers read the clock alone, so warm
// Start/Stop pairs never call a registered metric source, while the query
// interface still reads it.
func TestStartStopReadsNoMetricSource(t *testing.T) {
	p, c := newProfile()
	p.Start("warm", "APP")
	p.Stop("warm")
	reads := 0
	p.RegisterMetric("PAPI_FP_OPS", func() float64 { reads++; return 2 * c.t })
	for i := 0; i < 10; i++ {
		p.Start("warm", "APP")
		c.tick(3)
		p.Start("inner", "APP")
		c.tick(1)
		p.Stop("inner")
		p.Stop("warm")
	}
	if reads != 0 {
		t.Errorf("Start/Stop read the metric source %d times, want 0", reads)
	}
	if got := p.Lookup("warm").InclUS; got != 40 {
		t.Errorf("warm inclusive = %g, want 40", got)
	}
	if names := p.MetricNames(); len(names) != 2 || names[0] != WallClock || names[1] != "PAPI_FP_OPS" {
		t.Errorf("MetricNames = %v", names)
	}
	if snap := p.Snapshot(nil); len(snap) != 2 || snap[0] != 40 || snap[1] != 80 || reads != 1 {
		t.Errorf("Snapshot = %v after %d source reads, want [40 80] after 1", snap, reads)
	}
}

// TestTimersRejectsRunningTimers: a running timer has no final value, so a
// profile with one cannot be copied.
func TestTimersRejectsRunningTimers(t *testing.T) {
	p, _ := newProfile()
	p.Start("main()", "APP")
	if _, err := p.Timers(); err == nil {
		t.Error("copying a profile with a running timer succeeded")
	}
	p.Stop("main()")
	if _, err := p.Timers(); err != nil {
		t.Errorf("copying a finished profile: %v", err)
	}
}

// TestProfileGobRoundTripPreservesSummary: a profile's timer tables are
// plain data, so gob round-trips them with no codec of their own and the
// summary of the decoded tables is the live one bit for bit.
func TestProfileGobRoundTripPreservesSummary(t *testing.T) {
	p, c := newProfile()
	p.Start("main()", "APP")
	c.tick(1000)
	p.Start("MPI_Send()", "MPI")
	c.tick(250)
	p.Stop("MPI_Send()")
	c.tick(10)
	p.Stop("main()")
	in := [][]Timer{table(t, p), table(t, p)}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out [][]Timer
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("tables drifted through gob:\n got %+v\nwant %+v", out, in)
	}
	if got, want := MeanSummary(out...), MeanSummary(in...); !reflect.DeepEqual(got, want) {
		t.Errorf("summary drifted through gob:\n got %+v\nwant %+v", got, want)
	}
}
