// Package tau reimplements the slice of the TAU (Tuning and Analysis
// Utilities) measurement library that the paper's TAU component exposes
// through its MeasurementPort (paper §4.1) and that this reproduction reads:
//
//   - a timing interface — create, name, start, stop and group timers, with
//     aggregate inclusive and exclusive wall-clock time per timer;
//   - a control interface — enable or disable all timers of a group at
//     runtime (e.g. the "MPI" group);
//   - a query interface — current values of every metric being measured;
//   - the FUNCTION SUMMARY table (the paper's Fig. 3 format) of a finished
//     run's timers, one rank's or the mean over ranks.
//
// Instead of wall-clock and PAPI/PCL hardware counters, a Profile reads the
// simulated platform's virtual clock and PAPI-style counter sources; timers
// therefore report deterministic virtual microseconds.
package tau

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// TimeSource yields the current (virtual) time in microseconds.
type TimeSource func() float64

// MetricSource yields the current cumulative value of a hardware metric,
// e.g. PAPI_L2_DCM or PAPI_FP_OPS.
type MetricSource func() float64

// WallClock is the name of metric 0, always present.
const WallClock = "WALL_CLOCK"

// Timer accumulates the wall-clock time of a named code region. A finished
// profile's timers are plain data: Profile.Timers copies them, and a copy
// is what a run keeps, stores and summarizes.
type Timer struct {
	Name  string
	Group string
	// Calls counts the times the timer was started.
	Calls uint64
	// InclUS is the inclusive time in microseconds, counting only
	// completed outermost start/stop pairs.
	InclUS float64
	// ExclUS is the exclusive time in microseconds: the timer's own time,
	// without its children's.
	ExclUS float64
	depth  int // running instances; only the outermost adds to InclUS
}

type frame struct {
	t     *Timer
	start float64 // clock at Start
	child float64 // inclusive time of completed children
}

// Profile is the per-rank measurement context: a set of timers and metric
// sources plus the running-timer stack. A Profile is confined to one
// simulated rank and is not safe for concurrent use.
type Profile struct {
	now           TimeSource
	metricNames   []string
	metricSources []MetricSource
	timers        map[string]*Timer
	order         []*Timer
	stack         []frame
	disabled      map[string]bool
}

// NewProfile creates a measurement context reading time from now.
// Metric 0 is always WALL_CLOCK.
func NewProfile(now TimeSource) *Profile {
	return &Profile{
		now:           now,
		metricNames:   []string{WallClock},
		metricSources: []MetricSource{MetricSource(now)},
		timers:        make(map[string]*Timer),
		disabled:      make(map[string]bool),
	}
}

// RegisterMetric adds a hardware metric source (e.g. PAPI_L2_DCM) to the
// query interface. Timers read only the clock, so it may come at any time.
func (p *Profile) RegisterMetric(name string, src MetricSource) {
	p.metricNames = append(p.metricNames, name)
	p.metricSources = append(p.metricSources, src)
}

// MetricNames returns the names of all registered metrics, WALL_CLOCK first.
func (p *Profile) MetricNames() []string {
	out := make([]string, len(p.metricNames))
	copy(out, p.metricNames)
	return out
}

// timer returns the timer with the given name, creating it in the given
// group on first use. Reusing a name with a different group panics: timer
// names are global identities in TAU.
func (p *Profile) timer(name, group string) *Timer {
	if t, ok := p.timers[name]; ok {
		if t.Group != group {
			panic(fmt.Sprintf("tau: timer %q re-created in group %q (was %q)", name, group, t.Group))
		}
		return t
	}
	t := &Timer{Name: name, Group: group}
	p.timers[name] = t
	p.order = append(p.order, t)
	return t
}

// Start begins timing the named region. Starting a timer of a disabled
// group is a no-op. Timers may nest and may re-enter (recursion): only the
// outermost pair contributes to inclusive time.
func (p *Profile) Start(name, group string) {
	t := p.timer(name, group)
	if p.disabled[group] {
		return
	}
	t.Calls++
	t.depth++
	p.stack = append(p.stack, frame{t: t, start: p.now()})
}

// Stop ends the most recently started timer. The name must match the top of
// the timer stack; a mismatch is a programming error and panics (mirroring
// TAU's fatal diagnostics). Stopping a timer of a disabled group is a no-op.
func (p *Profile) Stop(name string) {
	if t, ok := p.timers[name]; ok && p.disabled[t.Group] {
		return
	}
	n := len(p.stack)
	if n == 0 {
		panic(fmt.Sprintf("tau: Stop(%q) with empty timer stack", name))
	}
	top := p.stack[n-1]
	if top.t.Name != name {
		panic(fmt.Sprintf("tau: Stop(%q) does not match running timer %q", name, top.t.Name))
	}
	p.stack = p.stack[:n-1]
	self := p.now() - top.start
	t := top.t
	t.depth--
	t.ExclUS += self - top.child
	if t.depth == 0 {
		t.InclUS += self
	}
	if n > 1 {
		p.stack[n-2].child += self
	}
}

// SetGroupEnabled enables or disables every timer of a group (the paper's
// control interface, e.g. disabling all "MPI" timers at runtime). Disabling
// a group with one of its timers running panics: TAU forbids control
// changes that would unbalance the stack.
func (p *Profile) SetGroupEnabled(group string, enabled bool) {
	if !enabled {
		for _, f := range p.stack {
			if f.t.Group == group {
				panic(fmt.Sprintf("tau: disabling group %q while timer %q is running", group, f.t.Name))
			}
		}
		p.disabled[group] = true
		return
	}
	delete(p.disabled, group)
}

// Lookup returns the named timer, or nil.
func (p *Profile) Lookup(name string) *Timer { return p.timers[name] }

// Timers copies every timer in registration order: the finished profile as
// plain data. A running timer has no final value yet, so copying a profile
// with one is an error.
func (p *Profile) Timers() ([]Timer, error) {
	if len(p.stack) != 0 {
		return nil, fmt.Errorf("tau: cannot copy profile with %d running timers", len(p.stack))
	}
	out := make([]Timer, len(p.order))
	for i, t := range p.order {
		out[i] = *t
	}
	return out, nil
}

// Snapshot returns the current value of every metric, in metric order
// (the paper's TAU_GET_FUNCTION_VALUES-style query), in dst when it has
// the capacity (nil gives a fresh vector).
func (p *Profile) Snapshot(dst []float64) []float64 {
	if cap(dst) < len(p.metricSources) {
		dst = make([]float64, len(p.metricSources))
	}
	dst = dst[:len(p.metricSources)]
	for i, src := range p.metricSources {
		dst[i] = src()
	}
	return dst
}

// GroupInclusive returns the summed inclusive time (microseconds) of all
// completed invocations of timers in the given group. The paper's
// Mastermind computes "MPI time" as exactly this sum over the MPI group.
func (p *Profile) GroupInclusive(group string) float64 {
	var sum float64
	for _, t := range p.order {
		if t.Group == group {
			sum += t.InclUS
		}
	}
	return sum
}

// SummaryRow is one line of a FUNCTION SUMMARY profile.
type SummaryRow struct {
	Name          string
	Group         string
	PercentTime   float64 // inclusive share of the maximum inclusive time
	ExclusiveUS   float64
	InclusiveUS   float64
	Calls         float64 // fractional when averaged over ranks
	MicrosPerCall float64
}

// MeanSummary averages per-rank timer tables into the FUNCTION SUMMARY
// (mean) table of Fig. 3, sorted by decreasing inclusive time: per-timer
// values are summed across ranks and divided by the number of tables,
// matching TAU's pprof mean output. One table gives that rank's summary.
func MeanSummary(tables ...[]Timer) []SummaryRow {
	if len(tables) == 0 {
		return nil
	}
	index := map[string]int{}
	var merged []Timer
	for _, table := range tables {
		for _, t := range table {
			i, ok := index[t.Name]
			if !ok {
				i = len(merged)
				index[t.Name] = i
				merged = append(merged, Timer{Name: t.Name, Group: t.Group})
			}
			m := &merged[i]
			m.Calls += t.Calls
			m.InclUS += t.InclUS
			m.ExclUS += t.ExclUS
		}
	}
	ranks := float64(len(tables))
	var maxIncl float64
	for _, t := range merged {
		if t.InclUS > maxIncl {
			maxIncl = t.InclUS
		}
	}
	rows := make([]SummaryRow, 0, len(merged))
	for _, t := range merged {
		calls := float64(t.Calls) / ranks
		incl := t.InclUS / ranks
		var perCall float64
		if calls > 0 {
			perCall = incl / calls
		}
		pct := 0.0
		if maxIncl > 0 {
			pct = t.InclUS / maxIncl * 100
		}
		rows = append(rows, SummaryRow{
			Name: t.Name, Group: t.Group,
			PercentTime: pct, ExclusiveUS: t.ExclUS / ranks, InclusiveUS: incl,
			Calls: calls, MicrosPerCall: perCall,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].InclusiveUS > rows[j].InclusiveUS })
	return rows
}

// formatInclusive renders an inclusive time the way TAU's pprof does:
// milliseconds below one minute, "m:ss.mmm" above.
func formatInclusive(us float64) string {
	ms := us / 1e3
	if ms < 60_000 {
		return commaGroup(int64(ms + 0.5))
	}
	totalMS := int64(ms + 0.5)
	min := totalMS / 60_000
	rem := totalMS % 60_000
	return fmt.Sprintf("%d:%02d.%03d", min, rem/1000, rem%1000)
}

// commaGroup renders n with thousands separators (55,244).
func commaGroup(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
		if len(s) > pre {
			b.WriteByte(',')
		}
	}
	for i := pre; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

// WriteFunctionSummary writes rows in the paper's Fig. 3 layout.
func WriteFunctionSummary(w io.Writer, title string, rows []SummaryRow) error {
	if _, err := fmt.Fprintf(w, "FUNCTION SUMMARY (%s):\n", title); err != nil {
		return err
	}
	io.WriteString(w, "%Time    Exclusive    Inclusive       #Call   Inclusive Name\n")
	io.WriteString(w, "          msec total     msec                  usec/call\n")
	io.WriteString(w, strings.Repeat("-", 78)+"\n")
	for _, r := range rows {
		calls := fmt.Sprintf("%.4g", r.Calls)
		if r.Calls == math.Trunc(r.Calls) {
			calls = fmt.Sprintf("%d", int64(r.Calls))
		}
		_, err := fmt.Fprintf(w, "%5.1f %12s %12s %11s %11d %s\n",
			r.PercentTime,
			commaGroup(int64(r.ExclusiveUS/1e3+0.5)),
			formatInclusive(r.InclusiveUS),
			calls,
			int64(r.MicrosPerCall+0.5),
			r.Name)
		if err != nil {
			return err
		}
	}
	return nil
}
