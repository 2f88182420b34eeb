// Code generated by proxygen from ports.go. DO NOT EDIT.

package components

import (
	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/euler"
)

// StatesProxy is the generated proxy component for StatesPort (paper §4.2).
// Its monitored methods report to their record objects, opened in wire;
// the others only forward.
type StatesProxy struct {
	svc    cca.Services
	target StatesPort
	recs   [1]*core.Record // one per monitored method
}

var _ StatesPort = (*StatesProxy)(nil)

// NewStatesProxy constructs the proxy.
func NewStatesProxy() cca.Component { return &StatesProxy{} }

// SetServices uses the target's port and the monitor port, and provides
// the target's port as "states".
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

// wire resolves the proxy's connections and opens its records on first
// use; it returns the target.
func (p *StatesProxy) wire() StatesPort {
	if p.target == nil {
		p.target = cca.Use[StatesPort](p.svc, "target")
		mon := cca.Use[core.MonitorPort](p.svc, "monitor")
		p.recs[0] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "states", Method: "compute"}, "Q", "mode")
	}
	return p.target
}

func (p *StatesProxy) Compute(b *euler.Block, dir euler.Dir, qL, qR *euler.EdgeField) {
	p.wire()
	p.recs[0].Start(float64(b.Cells()), float64(dir))
	p.svc.Context().Proc.ChargeCall()
	p.target.Compute(b, dir, qL, qR)
	p.recs[0].Stop()
}

// FluxProxy is the generated proxy component for FluxPort (paper §4.2).
// Its monitored methods report to their record objects, opened in wire;
// the others only forward.
type FluxProxy struct {
	svc    cca.Services
	target FluxPort
	recs   [1]*core.Record // one per monitored method
}

var _ FluxPort = (*FluxProxy)(nil)

// NewFluxProxy constructs the proxy.
func NewFluxProxy() cca.Component { return &FluxProxy{} }

// SetServices uses the target's port and the monitor port, and provides
// the target's port as "flux".
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

// wire resolves the proxy's connections and opens its records on first
// use; it returns the target.
func (p *FluxProxy) wire() FluxPort {
	if p.target == nil {
		p.target = cca.Use[FluxPort](p.svc, "target")
		mon := cca.Use[core.MonitorPort](p.svc, "monitor")
		p.recs[0] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "flux", Method: "compute"}, "Q", "mode")
	}
	return p.target
}

func (p *FluxProxy) Compute(qL, qR, flux *euler.EdgeField) (iters int) {
	p.wire()
	p.recs[0].Start(float64(qL.NxCells*qL.NyCells), float64(flux.Dir))
	p.svc.Context().Proc.ChargeCall()
	iters = p.target.Compute(qL, qR, flux)
	p.recs[0].Stop()
	return iters
}

// MeshProxy is the generated proxy component for MeshPort (paper §4.2).
// Its monitored methods report to their record objects, opened in wire;
// the others only forward.
type MeshProxy struct {
	svc    cca.Services
	target MeshPort
	recs   [4]*core.Record // one per monitored method
}

var _ MeshPort = (*MeshProxy)(nil)

// NewMeshProxy constructs the proxy.
func NewMeshProxy() cca.Component { return &MeshProxy{} }

// SetServices uses the target's port and the monitor port, and provides
// the target's port as "mesh".
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

// wire resolves the proxy's connections and opens its records on first
// use; it returns the target.
func (p *MeshProxy) wire() MeshPort {
	if p.target == nil {
		p.target = cca.Use[MeshPort](p.svc, "target")
		mon := cca.Use[core.MonitorPort](p.svc, "monitor")
		p.recs[0] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "ghostUpdate"}, "level")
		p.recs[1] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "prolong"})
		p.recs[2] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "loadBalance"})
		p.recs[3] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "restrict"}, "level")
	}
	return p.target
}

func (p *MeshProxy) Initialize() error { return p.wire().Initialize() }

func (p *MeshProxy) NumLevels() int { return p.wire().NumLevels() }

func (p *MeshProxy) Ratio() int { return p.wire().Ratio() }

func (p *MeshProxy) LevelPatchCount(level int) int { return p.wire().LevelPatchCount(level) }

func (p *MeshProxy) LocalPatches(level int) []amr.PatchRef { return p.wire().LocalPatches(level) }

func (p *MeshProxy) CellSize(level int) (dx, dy float64) { return p.wire().CellSize(level) }

func (p *MeshProxy) GhostUpdate(level int) {
	p.wire()
	p.recs[0].Start(float64(level))
	p.svc.Context().Proc.ChargeCall()
	p.target.GhostUpdate(level)
	p.recs[0].Stop()
}

func (p *MeshProxy) Regrid() {
	p.wire()
	p.recs[1].Start()
	p.svc.Context().Proc.ChargeCall()
	p.target.Regrid()
	p.recs[1].Stop()
}

func (p *MeshProxy) LoadBalance() (moved int) {
	p.wire()
	p.recs[2].Start()
	p.svc.Context().Proc.ChargeCall()
	moved = p.target.LoadBalance()
	p.recs[2].Stop()
	return moved
}

func (p *MeshProxy) Restrict(fineLevel int) {
	p.wire()
	p.recs[3].Start(float64(fineLevel))
	p.svc.Context().Proc.ChargeCall()
	p.target.Restrict(fineLevel)
	p.recs[3].Stop()
}

func (p *MeshProxy) GlobalMaxWaveSpeed() float64 { return p.wire().GlobalMaxWaveSpeed() }

func (p *MeshProxy) Imbalance() float64 { return p.wire().Imbalance() }
