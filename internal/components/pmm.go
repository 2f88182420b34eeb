package components

import (
	"repro/internal/cca"
	"repro/internal/core"
)

// TauMeasurement is the TAU component (paper §4.1): it exposes the rank's
// TAU measurement library through the generic MeasurementPort.
type TauMeasurement struct {
	svc     cca.Services
	metrics []float64 // QueryMetrics' result, overwritten by each query
}

// NewTauMeasurement constructs the component.
func NewTauMeasurement() cca.Component { return &TauMeasurement{} }

// SetServices registers the provides port.
func (t *TauMeasurement) SetServices(svc cca.Services) error {
	t.svc = svc
	return svc.AddProvidesPort(t, "measurement", TypeMeasurementPort)
}

var _ core.MeasurementPort = (*TauMeasurement)(nil)

// StartTimer implements core.MeasurementPort.
func (t *TauMeasurement) StartTimer(name, group string) { t.svc.Context().Prof.Start(name, group) }

// StopTimer implements core.MeasurementPort.
func (t *TauMeasurement) StopTimer(name string) { t.svc.Context().Prof.Stop(name) }

// MetricNames implements core.MeasurementPort.
func (t *TauMeasurement) MetricNames() []string { return t.svc.Context().Prof.MetricNames() }

// QueryMetrics implements core.MeasurementPort.
func (t *TauMeasurement) QueryMetrics() []float64 {
	t.metrics = t.svc.Context().Prof.Snapshot(t.metrics)
	return t.metrics
}

// GroupInclusive implements core.MeasurementPort.
func (t *TauMeasurement) GroupInclusive(group string) float64 {
	return t.svc.Context().Prof.GroupInclusive(group)
}

// Mastermind is the CCA wrapper of core.Mastermind: it provides the
// MonitorPort the proxies use and consumes the MeasurementPort.
type Mastermind struct {
	svc cca.Services
	mm  *core.Mastermind
}

// SetServices declares the used measurement port and registers the
// MonitorPort.
func (m *Mastermind) SetServices(svc cca.Services) error {
	m.svc = svc
	if err := svc.RegisterUsesPort("measurement", TypeMeasurementPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(m, "monitor", TypeMonitorPort)
}

// Core returns the underlying Mastermind, initializing it on first use.
func (m *Mastermind) Core() *core.Mastermind {
	if m.mm == nil {
		m.mm = core.NewMastermind(cca.Use[core.MeasurementPort](m.svc, "measurement"))
	}
	return m.mm
}

var _ core.MonitorPort = (*Mastermind)(nil)

// Monitor implements core.MonitorPort.
func (m *Mastermind) Monitor(edge core.CallEdge, params ...string) *core.Record {
	return m.Core().Monitor(edge, params...)
}
