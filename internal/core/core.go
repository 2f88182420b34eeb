// Package core implements the paper's primary contribution: the performance
// measurement and modeling (PMM) infrastructure for CCA component
// applications (paper §4). It defines the two ports the infrastructure is
// built from —
//
//   - MeasurementPort, the generic performance-component interface the TAU
//     component provides (timing, events, control, query);
//   - MonitorPort, the port proxies use to start/stop monitoring around each
//     forwarded method invocation;
//
// — and the Mastermind, which owns a record object per monitored method,
// snapshots the (cumulative) TAU measurements before and after every
// invocation, stores per-invocation rows of {parameters, wall time, MPI
// time, compute time, hardware-metric deltas}, captures the caller/callee
// trace, and dumps everything for model construction.
package core

import (
	"fmt"
	"io"
)

// MeasurementPort is the generic performance-measurement interface of the
// paper's §4.1 TAU component: timing, atomic events, timer-group control
// and measurement query.
type MeasurementPort interface {
	// StartTimer starts (creating if needed) the named timer in a group.
	StartTimer(name, group string)
	// StopTimer stops the named timer (must be the innermost running one).
	StopTimer(name string)
	// SetGroupEnabled enables or disables all timers of a group at
	// runtime (e.g. the MPI group).
	SetGroupEnabled(group string, enabled bool)
	// TriggerEvent records an occurrence of a named atomic event.
	TriggerEvent(name string, value float64)
	// MetricNames lists the measured metrics; index 0 is wall-clock.
	MetricNames() []string
	// QueryMetrics returns the current cumulative value of every metric
	// (the TAU_GET_FUNCTION_VALUES-style query the Mastermind uses).
	QueryMetrics() []float64
	// GroupInclusive returns the summed inclusive wall-clock microseconds
	// of all completed timers in a group; the Mastermind's "MPI time" is
	// GroupInclusive("MPI").
	GroupInclusive(group string) float64
	// Now returns the current time in microseconds.
	Now() float64
}

// MonitorPort is what a proxy holds: it notifies the Mastermind immediately
// before forwarding a method invocation and immediately after it returns
// (paper §4.2). Parameters that influence the method's performance (array
// sizes, mode flags) are extracted by the proxy and passed along.
type MonitorPort interface {
	// StartMonitoring opens an invocation record for the named method
	// (e.g. "sc_proxy::compute()"). Parameter extraction happens before
	// any timers start, so it is not charged to the component.
	StartMonitoring(method string, params []Param)
	// StopMonitoring closes the invocation and stores its measurements.
	StopMonitoring(method string)
	// RecordCall notes one caller→callee invocation for the application
	// call trace (the edge weights of the Fig. 10 dual).
	RecordCall(caller, callee, method string)
}

// Param is one performance-relevant input parameter of an invocation.
type Param struct {
	Name  string
	Value float64
}

// Invocation is one row of a record object: the parameters passed in and
// the measurement deltas across the forwarded call.
type Invocation struct {
	Params []Param
	// WallUS is the total execution time of the method call.
	WallUS float64
	// MPIUS is the total inclusive time spent in MPI during the call.
	MPIUS float64
	// ComputeUS is WallUS - MPIUS: the cache-sensitive computation time.
	ComputeUS float64
	// MetricDeltas holds the change of each hardware metric (indexed as
	// MeasurementPort.MetricNames, entry 0 = wall clock again).
	MetricDeltas []float64
}

// Param returns the named parameter's value.
func (inv *Invocation) Param(name string) (float64, bool) {
	for _, p := range inv.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// Record stores every invocation of a single monitored method, as the
// paper's record objects do.
type Record struct {
	// Method is the monitored method's timer name, e.g. "g_proxy::compute()".
	Method string
	// MetricNames mirrors the measurement component's metric list.
	MetricNames []string
	// Invocations holds one row per forwarded call.
	Invocations []Invocation
}

// WriteCSV dumps the record rows (what the paper's record objects write to
// file when destroyed).
func (r *Record) WriteCSV(w io.Writer) error {
	// Header: union of parameter names in first-seen order.
	var pnames []string
	seen := map[string]bool{}
	for i := range r.Invocations {
		for _, p := range r.Invocations[i].Params {
			if !seen[p.Name] {
				seen[p.Name] = true
				pnames = append(pnames, p.Name)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "method,invocation"); err != nil {
		return err
	}
	for _, n := range pnames {
		fmt.Fprintf(w, ",%s", n)
	}
	fmt.Fprintf(w, ",wall_us,mpi_us,compute_us")
	for _, m := range r.MetricNames {
		fmt.Fprintf(w, ",d_%s", m)
	}
	fmt.Fprintln(w)
	for i := range r.Invocations {
		inv := &r.Invocations[i]
		fmt.Fprintf(w, "%s,%d", r.Method, i)
		for _, n := range pnames {
			v, _ := inv.Param(n)
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintf(w, ",%g,%g,%g", inv.WallUS, inv.MPIUS, inv.ComputeUS)
		for _, d := range inv.MetricDeltas {
			fmt.Fprintf(w, ",%g", d)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CallEdge is one caller→callee relationship in the recorded call trace.
type CallEdge struct {
	Caller, Callee, Method string
}

// openInvocation holds the before-call snapshot.
type openInvocation struct {
	params  []Param
	wall0   float64
	mpi0    float64
	metric0 []float64
}

// Mastermind gathers, stores and reports measurement data (paper §4.3).
// One Mastermind serves every proxy of a rank's assembly. TAU measurements
// are cumulative, so each invocation is measured by differencing snapshots
// taken immediately before and after the forwarded call.
type Mastermind struct {
	meas    MeasurementPort
	records map[string]*Record
	order   []string
	open    map[string]*openInvocation
	edges   map[CallEdge]int
}

// NewMastermind builds a Mastermind on top of a measurement component.
func NewMastermind(meas MeasurementPort) *Mastermind {
	return &Mastermind{
		meas:    meas,
		records: make(map[string]*Record),
		open:    make(map[string]*openInvocation),
		edges:   make(map[CallEdge]int),
	}
}

var _ MonitorPort = (*Mastermind)(nil)

// StartMonitoring implements MonitorPort: parameters are stored first (no
// timer running), then the method's TAU timer starts and the cumulative
// counters are snapshotted.
func (m *Mastermind) StartMonitoring(method string, params []Param) {
	if m.open[method] != nil {
		panic(fmt.Sprintf("core: StartMonitoring(%q) re-entered", method))
	}
	if _, ok := m.records[method]; !ok {
		m.records[method] = &Record{Method: method, MetricNames: m.meas.MetricNames()}
		m.order = append(m.order, method)
	}
	cp := make([]Param, len(params))
	copy(cp, params)
	m.meas.StartTimer(method, "PROXY")
	m.open[method] = &openInvocation{
		params:  cp,
		wall0:   m.meas.Now(),
		mpi0:    m.meas.GroupInclusive("MPI"),
		metric0: m.meas.QueryMetrics(),
	}
}

// StopMonitoring implements MonitorPort: it snapshots the counters again,
// stores the difference as one invocation, and stops the TAU timer.
func (m *Mastermind) StopMonitoring(method string) {
	o := m.open[method]
	if o == nil {
		panic(fmt.Sprintf("core: StopMonitoring(%q) without StartMonitoring", method))
	}
	delete(m.open, method)
	wall := m.meas.Now() - o.wall0
	mpi := m.meas.GroupInclusive("MPI") - o.mpi0
	metric1 := m.meas.QueryMetrics()
	deltas := make([]float64, len(metric1))
	for i := range metric1 {
		deltas[i] = metric1[i] - o.metric0[i]
	}
	m.meas.StopTimer(method)
	rec := m.records[method]
	rec.Invocations = append(rec.Invocations, Invocation{
		Params:       o.params,
		WallUS:       wall,
		MPIUS:        mpi,
		ComputeUS:    wall - mpi,
		MetricDeltas: deltas,
	})
}

// RecordCall implements MonitorPort's call-trace capture.
func (m *Mastermind) RecordCall(caller, callee, method string) {
	m.edges[CallEdge{Caller: caller, Callee: callee, Method: method}]++
}

// Record returns the record object for a method, or nil.
func (m *Mastermind) Record(method string) *Record { return m.records[method] }

// Records returns every record in first-monitored order.
func (m *Mastermind) Records() []*Record {
	out := make([]*Record, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.records[name])
	}
	return out
}

// Edges returns a copy of the recorded call trace with invocation counts.
func (m *Mastermind) Edges() map[CallEdge]int {
	out := make(map[CallEdge]int, len(m.edges))
	for e, n := range m.edges {
		out[e] = n
	}
	return out
}
