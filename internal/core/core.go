// Package core implements the paper's primary contribution: the performance
// measurement and modeling (PMM) infrastructure for CCA component
// applications (paper §4). It defines the two ports the infrastructure is
// built from —
//
//   - MeasurementPort, the generic performance-component interface the TAU
//     component provides (timing and query);
//   - MonitorPort, the port a proxy opens its record objects on, one per
//     monitored method, each named by its call edge;
//
// — and the Mastermind, which owns the record objects. A record snapshots
// the (cumulative) TAU measurements around every invocation and stores
// {parameters, MPI time, metric deltas} as columns whose schema is fixed
// when the record opens. Metric 0 is the wall clock, so its delta is the
// call's wall time; compute time is wall minus MPI, derived where it is
// written. The call trace is read off the records: each edge weighted by
// its record's invocations.
package core

import (
	"fmt"
	"io"
	"slices"
	"strconv"
)

// MeasurementPort is the part of the paper's §4.1 TAU component interface
// that the Mastermind calls: timing and measurement query.
type MeasurementPort interface {
	// StartTimer starts (creating if needed) the named timer in a group.
	StartTimer(name, group string)
	// StopTimer stops the named timer (must be the innermost running one).
	StopTimer(name string)
	// MetricNames lists the measured metrics; index 0 is wall-clock, in
	// microseconds, so a record's metric-0 delta is a call's wall time.
	MetricNames() []string
	// QueryMetrics returns the current cumulative value of every metric
	// (the TAU_GET_FUNCTION_VALUES-style query the Mastermind uses). The
	// result may be overwritten by the next query.
	QueryMetrics() []float64
	// GroupInclusive returns the summed inclusive wall-clock microseconds
	// of all completed timers in a group; the Mastermind's "MPI time" is
	// GroupInclusive("MPI").
	GroupInclusive(group string) float64
}

// MonitorPort is what a proxy holds (paper §4.2). The proxy opens one record
// object per monitored method, naming the method by its call edge, and
// brackets every forwarded invocation with the record's Start and Stop.
type MonitorPort interface {
	// Monitor returns the record object of the edge's method, named
	// caller::method() (e.g. "sc_proxy::compute()"), opening it with the
	// named parameters on the first call for that method. The record's
	// invocations are the edge's weight in the call trace.
	Monitor(edge CallEdge, params ...string) *Record
}

// Record is the record object of one monitored method (paper §4.3): one row
// per forwarded invocation, stored as columns. Row i of every column is
// invocation i.
type Record struct {
	// Method is the monitored method's timer name, e.g. "g_proxy::compute()".
	Method string
	// Edge is the call edge the record measures, or zero for a record
	// opened by name.
	Edge CallEdge
	// MetricNames mirrors the measurement component's metric list.
	MetricNames []string
	// ParamNames names the method's performance parameters.
	ParamNames []string
	// Params holds one column per entry of ParamNames.
	Params [][]float64
	// MPIUS holds each call's inclusive time in MPI.
	MPIUS []float64
	// Deltas holds one column per metric (indexed as MetricNames): the
	// metric's change across each call.
	Deltas [][]float64

	m    *Mastermind
	open bool
	// before is Start's snapshot: the MPI time, then every metric.
	before []float64
}

// Len returns the number of recorded invocations.
func (r *Record) Len() int { return len(r.MPIUS) }

// WallUS returns each call's total execution time: the wall clock's
// (metric 0's) delta column.
func (r *Record) WallUS() []float64 { return r.Deltas[0] }

// Param returns the named parameter's column, or nil.
func (r *Record) Param(name string) []float64 {
	if i := slices.Index(r.ParamNames, name); i >= 0 {
		return r.Params[i]
	}
	return nil
}

// Start opens an invocation with the values of the record's parameters
// (array sizes, mode flags), evaluated by the caller before any timer
// starts, so parameter extraction is not charged to the component. It
// stores them, starts the method's TAU timer and snapshots the cumulative
// counters. Starting an open record panics.
func (r *Record) Start(values ...float64) {
	if r.open {
		panic(fmt.Sprintf("core: %s started again before it stopped", r.Method))
	}
	if len(values) != len(r.Params) {
		panic(fmt.Sprintf("core: %s started with %d parameters, want %d", r.Method, len(values), len(r.Params)))
	}
	r.open = true
	n := r.Len()
	if n == 0 {
		r.m.started = append(r.m.started, r)
	}
	if n == cap(r.MPIUS) {
		r.grow(max(2*n, 16))
	}
	for i, v := range values {
		r.Params[i] = append(r.Params[i], v)
	}
	meas := r.m.meas
	meas.StartTimer(r.Method, "PROXY")
	r.before[0] = meas.GroupInclusive("MPI")
	copy(r.before[1:], meas.QueryMetrics())
}

// grow gives every column of the record room for n rows at once, so that
// the columns share one capacity, cap(r.MPIUS), and a row's appends never
// reallocate. Each column growing by its own append (about 1.25x a step
// past 256 rows) would allocate several times its final bytes; doubled
// together, the columns allocate under twice theirs.
func (r *Record) grow(n int) {
	grown := func(col []float64) []float64 { return append(make([]float64, 0, n), col...) }
	for i := range r.Params {
		r.Params[i] = grown(r.Params[i])
	}
	for i := range r.Deltas {
		r.Deltas[i] = grown(r.Deltas[i])
	}
	r.MPIUS = grown(r.MPIUS)
}

// Stop closes the open invocation: it snapshots the counters again, stores
// the differences as the invocation's row, and stops the TAU timer.
// Stopping a record that is not open panics.
func (r *Record) Stop() {
	if !r.open {
		panic(fmt.Sprintf("core: %s stopped without a start", r.Method))
	}
	r.open = false
	meas := r.m.meas
	mpi := meas.GroupInclusive("MPI") - r.before[0]
	for i, v := range meas.QueryMetrics() {
		r.Deltas[i] = append(r.Deltas[i], v-r.before[1+i])
	}
	meas.StopTimer(r.Method)
	r.MPIUS = append(r.MPIUS, mpi)
}

// WriteCSV dumps the record rows (what the paper's record objects write to
// file when destroyed), one Write per line. Its compute_us column is each
// call's wall time minus its MPI time: the cache-sensitive computation
// time.
func (r *Record) WriteCSV(w io.Writer) error {
	b := []byte("method,invocation")
	for _, n := range r.ParamNames {
		b = append(append(b, ','), n...)
	}
	b = append(b, ",wall_us,mpi_us,compute_us"...)
	for _, m := range r.MetricNames {
		b = append(append(b, ",d_"...), m...)
	}
	for i := range r.Len() {
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
		b = strconv.AppendInt(append(append(b[:0], r.Method...), ','), int64(i), 10)
		for _, col := range r.Params {
			b = appendG(b, col[i])
		}
		wall, mpi := r.WallUS()[i], r.MPIUS[i]
		b = appendG(appendG(appendG(b, wall), mpi), wall-mpi)
		for _, col := range r.Deltas {
			b = appendG(b, col[i])
		}
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// appendG appends ",v" with v formatted as fmt's %g does.
func appendG(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
}

// CallEdge is one caller→callee relationship in the recorded call trace.
type CallEdge struct {
	Caller, Callee, Method string
}

// Trace returns the call trace of the records that carry an edge (the
// edge weights of the Fig. 10 dual): each edge with its record's number of
// invocations.
func Trace(recs []*Record) map[CallEdge]int {
	trace := map[CallEdge]int{}
	for _, r := range recs {
		if r.Edge != (CallEdge{}) {
			trace[r.Edge] += r.Len()
		}
	}
	return trace
}

// Mastermind gathers, stores and reports measurement data (paper §4.3).
// One Mastermind serves every proxy of a rank's assembly. TAU measurements
// are cumulative, so each invocation is measured by differencing snapshots
// taken immediately before and after the forwarded call.
type Mastermind struct {
	meas MeasurementPort
	// opened holds every record in opening order, started those with an
	// invocation in order of their first Start.
	opened, started []*Record
}

// NewMastermind builds a Mastermind on top of a measurement component.
func NewMastermind(meas MeasurementPort) *Mastermind {
	return &Mastermind{meas: meas}
}

var _ MonitorPort = (*Mastermind)(nil)

// Monitor implements MonitorPort.
func (m *Mastermind) Monitor(edge CallEdge, params ...string) *Record {
	return m.openRecord(edge.Caller+"::"+edge.Method+"()", edge, params)
}

// openRecord returns the named method's record, opening it with the edge
// and the parameters' names if none is open.
func (m *Mastermind) openRecord(method string, edge CallEdge, params []string) *Record {
	if r := m.Record(method); r != nil {
		return r
	}
	names := m.meas.MetricNames()
	r := &Record{
		Method: method, Edge: edge, MetricNames: names, ParamNames: slices.Clone(params),
		Params: make([][]float64, len(params)), Deltas: make([][]float64, len(names)),
		m: m, before: make([]float64, 1+len(names)),
	}
	m.opened = append(m.opened, r)
	return r
}

// StartMonitoring starts the named method's record, opening it with the
// parameters' names and no edge on first use: a by-name wrapper that only
// bench/probes.go calls. Proxies hold their records.
func (m *Mastermind) StartMonitoring(method string, params []Param) {
	names, values := make([]string, len(params)), make([]float64, len(params))
	for i, p := range params {
		names[i], values[i] = p.Name, p.Value
	}
	m.openRecord(method, CallEdge{}, names).Start(values...)
}

// StopMonitoring stops the named method's record (for bench/probes.go).
func (m *Mastermind) StopMonitoring(method string) { m.openRecord(method, CallEdge{}, nil).Stop() }

// Param is one performance-relevant input parameter of an invocation, as
// StartMonitoring takes it.
type Param struct {
	Name  string
	Value float64
}

// Record returns the record object for a method, or nil if none is open.
func (m *Mastermind) Record(method string) *Record {
	for _, r := range m.opened {
		if r.Method == method {
			return r
		}
	}
	return nil
}

// Records returns every record with at least one invocation, in order of
// each record's first Start.
func (m *Mastermind) Records() []*Record {
	return slices.DeleteFunc(slices.Clone(m.started), func(r *Record) bool { return r.Len() == 0 })
}
