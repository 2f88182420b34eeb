// Package tau reimplements the slice of the TAU (Tuning and Analysis
// Utilities) measurement library that the paper's TAU component exposes
// through its MeasurementPort (paper §4.1):
//
//   - a timing interface — create, name, start, stop and group timers, with
//     aggregate inclusive and exclusive time per timer;
//   - an event interface — named atomic events recording min, max, mean,
//     standard deviation and count;
//   - a control interface — enable or disable all timers of a group at
//     runtime (e.g. the "MPI" group);
//   - a query interface — current values of every metric being measured;
//   - a summary profile dump at program termination (the paper's Fig. 3
//     FUNCTION SUMMARY format).
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

// Timer accumulates inclusive and exclusive values for a named code region.
// Values are vectors over the profile's metrics; index 0 is wall-clock
// microseconds.
type Timer struct {
	name  string
	group string
	calls uint64
	depth int
	incl  []float64
	excl  []float64
}

// Name returns the timer's name.
func (t *Timer) Name() string { return t.name }

// Group returns the timer's group identifier.
func (t *Timer) Group() string { return t.group }

// Calls returns the number of times the timer was started.
func (t *Timer) Calls() uint64 { return t.calls }

// Inclusive returns accumulated inclusive time (metric 0) in microseconds,
// counting only completed outermost start/stop pairs.
func (t *Timer) Inclusive() float64 { return t.incl[0] }

// Exclusive returns accumulated exclusive time (metric 0) in microseconds.
func (t *Timer) Exclusive() float64 { return t.excl[0] }

// InclusiveMetric returns the accumulated inclusive value of metric i.
func (t *Timer) InclusiveMetric(i int) float64 { return t.incl[i] }

// ExclusiveMetric returns the accumulated exclusive value of metric i.
func (t *Timer) ExclusiveMetric(i int) float64 { return t.excl[i] }

// MicrosPerCall returns mean inclusive microseconds per call.
func (t *Timer) MicrosPerCall() float64 {
	if t.calls == 0 {
		return 0
	}
	return t.incl[0] / float64(t.calls)
}

// Event is a named atomic event tracking count, min, max, mean and standard
// deviation of the triggered values (paper §4.1 event interface).
type Event struct {
	name  string
	count uint64
	sum   float64
	sumSq float64
	min   float64
	max   float64
}

// Name returns the event name.
func (e *Event) Name() string { return e.name }

// Count returns how many times the event was triggered.
func (e *Event) Count() uint64 { return e.count }

// Min returns the minimum triggered value (0 if never triggered).
func (e *Event) Min() float64 {
	if e.count == 0 {
		return 0
	}
	return e.min
}

// Max returns the maximum triggered value (0 if never triggered).
func (e *Event) Max() float64 {
	if e.count == 0 {
		return 0
	}
	return e.max
}

// Mean returns the mean triggered value (0 if never triggered).
func (e *Event) Mean() float64 {
	if e.count == 0 {
		return 0
	}
	return e.sum / float64(e.count)
}

// StdDev returns the population standard deviation of triggered values.
func (e *Event) StdDev() float64 {
	if e.count == 0 {
		return 0
	}
	n := float64(e.count)
	v := e.sumSq/n - (e.sum/n)*(e.sum/n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

type frame struct {
	t     *Timer
	start []float64 // metric values at start
	child []float64 // inclusive metric values of completed children
}

// Profile is the per-rank measurement context: a set of timers, events and
// metric sources plus the running-timer stack. A Profile is confined to one
// simulated rank and is not safe for concurrent use.
type Profile struct {
	now           TimeSource
	metricNames   []string
	metricSources []MetricSource
	timers        map[string]*Timer
	order         []*Timer
	events        map[string]*Event
	eventOrder    []*Event
	stack         []frame
	disabled      map[string]bool
	stopBuf       []float64 // Stop's metric sample, reused across calls
}

// NewProfile creates a measurement context reading time from now.
// Metric 0 is always WALL_CLOCK.
func NewProfile(now TimeSource) *Profile {
	p := &Profile{
		now:      now,
		timers:   make(map[string]*Timer),
		events:   make(map[string]*Event),
		disabled: make(map[string]bool),
	}
	p.metricNames = []string{WallClock}
	p.metricSources = []MetricSource{func() float64 { return now() }}
	return p
}

// RegisterMetric adds a hardware metric source (e.g. PAPI_L2_DCM). It must
// be called before any timer is created or started; it panics otherwise,
// since timers carry fixed-size metric vectors.
func (p *Profile) RegisterMetric(name string, src MetricSource) {
	if len(p.stack) != 0 || len(p.timers) != 0 {
		panic("tau: RegisterMetric after timers exist")
	}
	p.metricNames = append(p.metricNames, name)
	p.metricSources = append(p.metricSources, src)
}

// MetricNames returns the names of all registered metrics, WALL_CLOCK first.
func (p *Profile) MetricNames() []string {
	out := make([]string, len(p.metricNames))
	copy(out, p.metricNames)
	return out
}

// sized returns v with length n, reallocated only if it lacks the capacity.
func sized(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// Timer returns the timer with the given name, creating it in the given
// group on first use. Reusing a name with a different group panics: timer
// names are global identities in TAU.
func (p *Profile) Timer(name, group string) *Timer {
	if t, ok := p.timers[name]; ok {
		if t.group != group {
			panic(fmt.Sprintf("tau: timer %q re-created in group %q (was %q)", name, group, t.group))
		}
		return t
	}
	t := &Timer{
		name:  name,
		group: group,
		incl:  make([]float64, len(p.metricSources)),
		excl:  make([]float64, len(p.metricSources)),
	}
	p.timers[name] = t
	p.order = append(p.order, t)
	return t
}

// Start begins timing the named region. Starting a timer of a disabled
// group is a no-op. Timers may nest and may re-enter (recursion): only the
// outermost pair contributes to inclusive time.
func (p *Profile) Start(name, group string) {
	t := p.Timer(name, group)
	if p.disabled[group] {
		return
	}
	t.calls++
	t.depth++
	// A frame popped by Stop stays in the stack's backing array with its two
	// vectors; pushing over it reuses them, so a warmed Start allocates
	// nothing.
	n := len(p.stack)
	if n < cap(p.stack) {
		p.stack = p.stack[:n+1]
	} else {
		p.stack = append(p.stack, frame{})
	}
	f := &p.stack[n]
	f.t = t
	f.start = p.Snapshot(f.start)
	f.child = sized(f.child, len(f.start))
	clear(f.child)
}

// Stop ends the most recently started timer. The name must match the top of
// the timer stack; a mismatch is a programming error and panics (mirroring
// TAU's fatal diagnostics). Stopping a timer of a disabled group is a no-op.
func (p *Profile) Stop(name string) {
	if t, ok := p.timers[name]; ok && p.disabled[t.group] {
		return
	}
	if len(p.stack) == 0 {
		panic(fmt.Sprintf("tau: Stop(%q) with empty timer stack", name))
	}
	top := p.stack[len(p.stack)-1]
	if top.t.name != name {
		panic(fmt.Sprintf("tau: Stop(%q) does not match running timer %q", name, top.t.name))
	}
	p.stack = p.stack[:len(p.stack)-1]
	p.stopBuf = p.Snapshot(p.stopBuf)
	cur := p.stopBuf
	t := top.t
	t.depth--
	for i := range cur {
		selfIncl := cur[i] - top.start[i]
		t.excl[i] += selfIncl - top.child[i]
		if t.depth == 0 {
			t.incl[i] += selfIncl
		}
		if len(p.stack) > 0 {
			p.stack[len(p.stack)-1].child[i] += selfIncl
		}
	}
}

// Running returns the name of the innermost running timer, or "".
func (p *Profile) Running() string {
	if len(p.stack) == 0 {
		return ""
	}
	return p.stack[len(p.stack)-1].t.name
}

// Depth returns the current timer nesting depth.
func (p *Profile) Depth() int { return len(p.stack) }

// SetGroupEnabled enables or disables every timer of a group (the paper's
// control interface, e.g. disabling all "MPI" timers at runtime). Disabling
// a group with one of its timers running panics: TAU forbids control
// changes that would unbalance the stack.
func (p *Profile) SetGroupEnabled(group string, enabled bool) {
	if !enabled {
		for _, f := range p.stack {
			if f.t.group == group {
				panic(fmt.Sprintf("tau: disabling group %q while timer %q is running", group, f.t.name))
			}
		}
		p.disabled[group] = true
		return
	}
	delete(p.disabled, group)
}

// GroupEnabled reports whether the group's timers are currently enabled.
func (p *Profile) GroupEnabled(group string) bool { return !p.disabled[group] }

// TriggerEvent records one occurrence of the named atomic event.
func (p *Profile) TriggerEvent(name string, value float64) {
	e, ok := p.events[name]
	if !ok {
		e = &Event{name: name}
		p.events[name] = e
		p.eventOrder = append(p.eventOrder, e)
	}
	e.count++
	e.sum += value
	e.sumSq += value * value
	if e.count == 1 || value < e.min {
		e.min = value
	}
	if e.count == 1 || value > e.max {
		e.max = value
	}
}

// Event returns the named event, or nil if it was never triggered.
func (p *Profile) Event(name string) *Event { return p.events[name] }

// EventsCheckpoint is a snapshot of every atomic event's statistics, taken
// with CheckpointEvents and applied with RestoreEvents. It is opaque.
type EventsCheckpoint struct {
	events []Event // value copies, in creation order
}

// CheckpointEvents captures the statistics of every atomic event into cp
// for a later RestoreEvents. Events are small (a name and five numbers), so
// the snapshot costs one value copy per distinct event name — cheap enough
// to take around speculative regions that may trigger events and need
// undoing. It reuses cp's storage: a caller that checkpoints into one
// EventsCheckpoint allocates only when the profile has gained events.
func (p *Profile) CheckpointEvents(cp *EventsCheckpoint) {
	cp.events = cp.events[:0]
	for _, e := range p.eventOrder {
		cp.events = append(cp.events, *e)
	}
}

// RestoreEvents rewinds every atomic event to a previously captured
// checkpoint: statistics of existing events are restored in place (pointers
// returned by Event/Events stay valid) and events first triggered after the
// checkpoint are removed. The checkpoint must come from this profile:
// event creation order is append-only, so the checkpointed events must be a
// prefix of the current ones, and a mismatch panics.
func (p *Profile) RestoreEvents(cp EventsCheckpoint) {
	if len(cp.events) > len(p.eventOrder) {
		panic("tau: RestoreEvents with checkpoint from another profile or the future")
	}
	for i := range cp.events {
		e := p.eventOrder[i]
		if e.name != cp.events[i].name {
			panic(fmt.Sprintf("tau: RestoreEvents order mismatch: %q vs checkpointed %q", e.name, cp.events[i].name))
		}
		*e = cp.events[i]
	}
	for _, e := range p.eventOrder[len(cp.events):] {
		delete(p.events, e.name)
	}
	p.eventOrder = p.eventOrder[:len(cp.events)]
}

// Events returns all events in creation order.
func (p *Profile) Events() []*Event {
	out := make([]*Event, len(p.eventOrder))
	copy(out, p.eventOrder)
	return out
}

// Lookup returns the named timer, or nil.
func (p *Profile) Lookup(name string) *Timer { return p.timers[name] }

// Timers returns all timers in creation order.
func (p *Profile) Timers() []*Timer {
	out := make([]*Timer, len(p.order))
	copy(out, p.order)
	return out
}

// CounterValue implements the query interface for one metric: the current
// cumulative value of the named metric source. It returns false if the
// metric is unknown.
func (p *Profile) CounterValue(name string) (float64, bool) {
	for i, n := range p.metricNames {
		if n == name {
			if i >= len(p.metricSources) {
				// A decoded (read-only) profile has names but no live
				// sources to sample.
				return 0, false
			}
			return p.metricSources[i](), true
		}
	}
	return 0, false
}

// Snapshot returns the current value of every metric, in metric order
// (the paper's TAU_GET_FUNCTION_VALUES-style query), in dst when it has
// the capacity (nil gives a fresh vector).
func (p *Profile) Snapshot(dst []float64) []float64 {
	dst = sized(dst, len(p.metricSources))
	for i, src := range p.metricSources {
		dst[i] = src()
	}
	return dst
}

// GroupInclusive returns the summed inclusive time (metric 0, microseconds)
// of all completed invocations of timers in the given group. The paper's
// Mastermind computes "MPI time" as exactly this sum over the MPI group.
func (p *Profile) GroupInclusive(group string) float64 {
	var sum float64
	for _, t := range p.order {
		if t.group == group {
			sum += t.incl[0]
		}
	}
	return sum
}

// GroupCalls returns the total number of calls to timers of a group.
func (p *Profile) GroupCalls(group string) uint64 {
	var sum uint64
	for _, t := range p.order {
		if t.group == group {
			sum += t.calls
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

// Summary computes the profile's FUNCTION SUMMARY rows, sorted by
// decreasing inclusive time (the Fig. 3 ordering).
func (p *Profile) Summary() []SummaryRow {
	return summarize(p.order, 1)
}

// MeanSummary averages per-rank profiles into the FUNCTION SUMMARY (mean)
// table of Fig. 3: per-timer values are summed across ranks and divided by
// the number of profiles, matching TAU's pprof mean output.
func MeanSummary(profiles []*Profile) []SummaryRow {
	if len(profiles) == 0 {
		return nil
	}
	merged := map[string]*Timer{}
	var order []*Timer
	// Metric count comes from the names, not the sources: a decoded
	// (checkpointed) profile keeps its names and tallies but has no live
	// source callbacks.
	nm := len(profiles[0].metricNames)
	for _, p := range profiles {
		for _, t := range p.order {
			m, ok := merged[t.name]
			if !ok {
				m = &Timer{name: t.name, group: t.group,
					incl: make([]float64, nm), excl: make([]float64, nm)}
				merged[t.name] = m
				order = append(order, m)
			}
			m.calls += t.calls
			for i := 0; i < nm && i < len(t.incl); i++ {
				m.incl[i] += t.incl[i]
				m.excl[i] += t.excl[i]
			}
		}
	}
	return summarize(order, float64(len(profiles)))
}

func summarize(timers []*Timer, ranks float64) []SummaryRow {
	rows := make([]SummaryRow, 0, len(timers))
	var maxIncl float64
	for _, t := range timers {
		if t.incl[0] > maxIncl {
			maxIncl = t.incl[0]
		}
	}
	for _, t := range timers {
		calls := float64(t.calls) / ranks
		incl := t.incl[0] / ranks
		excl := t.excl[0] / ranks
		var perCall float64
		if calls > 0 {
			perCall = incl / calls
		}
		pct := 0.0
		if maxIncl > 0 {
			pct = t.incl[0] / maxIncl * 100
		}
		rows = append(rows, SummaryRow{
			Name: t.name, Group: t.group,
			PercentTime: pct, ExclusiveUS: excl, InclusiveUS: incl,
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

// WriteEventSummary writes the atomic-event table TAU appends to its
// profile dumps: per event the count, min, max, mean and standard
// deviation (paper §4.1: "For each event of a given name, the minimum,
// maximum, mean, standard deviation and number of entries are recorded").
func (p *Profile) WriteEventSummary(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "USER EVENTS:"); err != nil {
		return err
	}
	fmt.Fprintln(w, "NumSamples    Min         Max        Mean     Std. Dev.  Event Name")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	for _, e := range p.eventOrder {
		if _, err := fmt.Fprintf(w, "%10d %10.4g %10.4g %10.4g %10.4g  %s\n",
			e.Count(), e.Min(), e.Max(), e.Mean(), e.StdDev(), e.Name()); err != nil {
			return err
		}
	}
	return nil
}

// WriteProfile writes one rank's full profile dump: the function summary
// followed by the user events — what TAU writes to its profile.* files at
// program termination.
func (p *Profile) WriteProfile(w io.Writer, rank int) error {
	if err := WriteFunctionSummary(w, fmt.Sprintf("rank %d", rank), p.Summary()); err != nil {
		return err
	}
	if len(p.eventOrder) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return p.WriteEventSummary(w)
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
