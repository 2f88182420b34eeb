package components

import (
	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/euler"
)

// TauMeasurement is the TAU component (paper §4.1): it exposes the rank's
// TAU measurement library through the generic MeasurementPort.
type TauMeasurement struct {
	svc cca.Services
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

// SetGroupEnabled implements core.MeasurementPort.
func (t *TauMeasurement) SetGroupEnabled(group string, enabled bool) {
	t.svc.Context().Prof.SetGroupEnabled(group, enabled)
}

// TriggerEvent implements core.MeasurementPort.
func (t *TauMeasurement) TriggerEvent(name string, value float64) {
	t.svc.Context().Prof.TriggerEvent(name, value)
}

// MetricNames implements core.MeasurementPort.
func (t *TauMeasurement) MetricNames() []string { return t.svc.Context().Prof.MetricNames() }

// QueryMetrics implements core.MeasurementPort.
func (t *TauMeasurement) QueryMetrics() []float64 { return t.svc.Context().Prof.Snapshot() }

// GroupInclusive implements core.MeasurementPort.
func (t *TauMeasurement) GroupInclusive(group string) float64 {
	return t.svc.Context().Prof.GroupInclusive(group)
}

// Now implements core.MeasurementPort.
func (t *TauMeasurement) Now() float64 { return t.svc.Context().Proc.Now() }

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

// StartMonitoring implements core.MonitorPort.
func (m *Mastermind) StartMonitoring(method string, params []core.Param) {
	m.Core().StartMonitoring(method, params)
}

// StopMonitoring implements core.MonitorPort.
func (m *Mastermind) StopMonitoring(method string) { m.Core().StopMonitoring(method) }

// RecordCall implements core.MonitorPort.
func (m *Mastermind) RecordCall(caller, callee, method string) {
	m.Core().RecordCall(caller, callee, method)
}

// StatesProxy intercepts StatesPort calls (the paper's sc_proxy): it
// extracts the performance parameters — array size Q and access mode —
// notifies the Mastermind, charges the extra virtual dispatch, and forwards
// to the real component.
type StatesProxy struct {
	svc    cca.Services
	target StatesPort
	mon    core.MonitorPort
}

// NewStatesProxy constructs the proxy.
func NewStatesProxy() cca.Component { return &StatesProxy{} }

// SetServices mirrors the real component's ports plus the monitor port.
func (p *StatesProxy) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort("target", TypeStatesPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("monitor", TypeMonitorPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, "states", TypeStatesPort)
}

// wire lazily resolves the proxy's connections.
func (p *StatesProxy) wire() {
	if p.target == nil {
		p.target = cca.Use[StatesPort](p.svc, "target")
		p.mon = cca.Use[core.MonitorPort](p.svc, "monitor")
	}
}

// Compute implements StatesPort by interposition.
func (p *StatesProxy) Compute(b *euler.Block, dir euler.Dir, qL, qR *euler.EdgeField) {
	p.wire()
	name := p.svc.InstanceName() + "::compute()"
	// Parameter extraction happens before the timers start (paper §5:
	// proxy work is outside the measured region).
	params := []core.Param{
		{Name: "Q", Value: float64(b.Cells())},
		{Name: "mode", Value: float64(dir)},
	}
	p.mon.StartMonitoring(name, params)
	p.svc.Context().Proc.ChargeCall() // the forwarded virtual invocation
	p.target.Compute(b, dir, qL, qR)
	p.mon.StopMonitoring(name)
	p.mon.RecordCall(p.svc.InstanceName(), "states", "compute")
}

// FluxProxy intercepts FluxPort calls (g_proxy for GodunovFlux, efm_proxy
// for EFMFlux).
type FluxProxy struct {
	svc    cca.Services
	target FluxPort
	mon    core.MonitorPort
}

// NewFluxProxy constructs the proxy.
func NewFluxProxy() cca.Component { return &FluxProxy{} }

// SetServices mirrors the real component's ports plus the monitor port.
func (p *FluxProxy) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort("target", TypeFluxPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("monitor", TypeMonitorPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, "flux", TypeFluxPort)
}

func (p *FluxProxy) wire() {
	if p.target == nil {
		p.target = cca.Use[FluxPort](p.svc, "target")
		p.mon = cca.Use[core.MonitorPort](p.svc, "monitor")
	}
}

// Compute implements FluxPort by interposition.
func (p *FluxProxy) Compute(qL, qR, flux *euler.EdgeField) int {
	p.wire()
	name := p.svc.InstanceName() + "::compute()"
	q := float64(qL.NxCells * qL.NyCells)
	params := []core.Param{
		{Name: "Q", Value: q},
		{Name: "mode", Value: float64(flux.Dir)},
	}
	p.mon.StartMonitoring(name, params)
	p.svc.Context().Proc.ChargeCall()
	iters := p.target.Compute(qL, qR, flux)
	p.mon.StopMonitoring(name)
	p.mon.RecordCall(p.svc.InstanceName(), "flux", "compute")
	return iters
}

// MeshProxy intercepts the AMRMesh methods worth modeling (the paper's
// icc_proxy): ghost updates (capturing the per-level message-passing costs
// of Fig. 9), regridding (whose cost is dominated by prolongation),
// restriction, and load balancing.
type MeshProxy struct {
	svc    cca.Services
	target MeshPort
	mon    core.MonitorPort
}

// NewMeshProxy constructs the proxy.
func NewMeshProxy() cca.Component { return &MeshProxy{} }

// SetServices mirrors the mesh ports plus the monitor port.
func (p *MeshProxy) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort("target", TypeMeshPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("monitor", TypeMonitorPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, "mesh", TypeMeshPort)
}

func (p *MeshProxy) wire() (MeshPort, core.MonitorPort) {
	if p.target == nil {
		p.target = cca.Use[MeshPort](p.svc, "target")
		p.mon = cca.Use[core.MonitorPort](p.svc, "monitor")
	}
	return p.target, p.mon
}

// monitored wraps a forwarded call in a monitoring window.
func (p *MeshProxy) monitored(method string, params []core.Param, call func()) {
	_, mon := p.wire()
	name := p.svc.InstanceName() + "::" + method + "()"
	mon.StartMonitoring(name, params)
	p.svc.Context().Proc.ChargeCall()
	call()
	mon.StopMonitoring(name)
	mon.RecordCall(p.svc.InstanceName(), "mesh", method)
}

// Initialize forwards without monitoring (setup, not steady-state cost).
func (p *MeshProxy) Initialize() error {
	t, _ := p.wire()
	return t.Initialize()
}

// GhostUpdate implements MeshPort, monitored with the level as parameter —
// the records behind Fig. 9.
func (p *MeshProxy) GhostUpdate(level int) {
	t, _ := p.wire()
	p.monitored("ghostUpdate", []core.Param{{Name: "level", Value: float64(level)}},
		func() { t.GhostUpdate(level) })
}

// Regrid implements MeshPort, monitored (prolongation dominates).
func (p *MeshProxy) Regrid() {
	t, _ := p.wire()
	p.monitored("prolong", nil, func() { t.Regrid() })
}

// Restrict implements MeshPort, monitored.
func (p *MeshProxy) Restrict(fineLevel int) {
	t, _ := p.wire()
	p.monitored("restrict", []core.Param{{Name: "level", Value: float64(fineLevel)}},
		func() { t.Restrict(fineLevel) })
}

// LoadBalance implements MeshPort, monitored.
func (p *MeshProxy) LoadBalance() int {
	t, _ := p.wire()
	moved := 0
	p.monitored("loadBalance", nil, func() { moved = t.LoadBalance() })
	return moved
}

// The remaining MeshPort methods are cheap queries, forwarded unmonitored.

// NumLevels implements MeshPort.
func (p *MeshProxy) NumLevels() int { t, _ := p.wire(); return t.NumLevels() }

// Ratio implements MeshPort.
func (p *MeshProxy) Ratio() int { t, _ := p.wire(); return t.Ratio() }

// LevelPatchCount implements MeshPort.
func (p *MeshProxy) LevelPatchCount(level int) int {
	t, _ := p.wire()
	return t.LevelPatchCount(level)
}

// LocalPatches implements MeshPort.
func (p *MeshProxy) LocalPatches(level int) []amr.PatchRef {
	t, _ := p.wire()
	return t.LocalPatches(level)
}

// CellSize implements MeshPort.
func (p *MeshProxy) CellSize(level int) (float64, float64) {
	t, _ := p.wire()
	return t.CellSize(level)
}

// GlobalMaxWaveSpeed implements MeshPort.
func (p *MeshProxy) GlobalMaxWaveSpeed() float64 {
	t, _ := p.wire()
	return t.GlobalMaxWaveSpeed()
}

// Imbalance implements MeshPort.
func (p *MeshProxy) Imbalance() float64 { t, _ := p.wire(); return t.Imbalance() }
