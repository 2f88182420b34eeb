package components

import (
	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/euler"
)

// States is the reconstruction component: it computes left/right interface
// states for a data array, in sequential (X-derivative) or strided
// (Y-derivative) mode.
type States struct {
	svc cca.Services
}

// NewStates constructs the component.
func NewStates() cca.Component { return &States{} }

// SetServices registers the provides port.
func (s *States) SetServices(svc cca.Services) error {
	s.svc = svc
	return svc.AddProvidesPort(s, "states", TypeStatesPort)
}

// Compute implements StatesPort.
func (s *States) Compute(b *euler.Block, dir euler.Dir, qL, qR *euler.EdgeField) {
	euler.States(s.svc.Context().Proc, b, dir, qL, qR)
}

// EFMFlux is the kinetic (Equilibrium Flux Method) flux component: cheap,
// low-variance, slightly more diffusive.
type EFMFlux struct {
	svc cca.Services
}

// NewEFMFlux constructs the component.
func NewEFMFlux() cca.Component { return &EFMFlux{} }

// SetServices registers the provides port.
func (e *EFMFlux) SetServices(svc cca.Services) error {
	e.svc = svc
	return svc.AddProvidesPort(e, "flux", TypeFluxPort)
}

// Compute implements FluxPort.
func (e *EFMFlux) Compute(qL, qR, flux *euler.EdgeField) int {
	euler.EFMFlux(e.svc.Context().Proc, qL, qR, flux)
	return 0
}

// GodunovFlux is the exact-Riemann-solver flux component: more accurate
// (the scientists' preference) but more expensive, with data-dependent
// iteration counts.
type GodunovFlux struct {
	svc cca.Services
}

// NewGodunovFlux constructs the component.
func NewGodunovFlux() cca.Component { return &GodunovFlux{} }

// SetServices registers the provides port.
func (g *GodunovFlux) SetServices(svc cca.Services) error {
	g.svc = svc
	return svc.AddProvidesPort(g, "flux", TypeFluxPort)
}

// Compute implements FluxPort.
func (g *GodunovFlux) Compute(qL, qR, flux *euler.EdgeField) int {
	return euler.GodunovFlux(g.svc.Context().Proc, qL, qR, flux)
}

// InviscidFlux composes a patch's flux evaluation: States then Flux for
// each sweep direction. Its uses-ports are where the paper interposes the
// sc_proxy and g_proxy/efm_proxy.
type InviscidFlux struct {
	svc    cca.Services
	states StatesPort
	flux   FluxPort
	// scratch backs the four state fields of one PatchFluxes call.
	scratch euler.Scratch
}

// NewInviscidFlux constructs the component.
func NewInviscidFlux() cca.Component { return &InviscidFlux{} }

// SetServices declares the used ports and registers the provides port.
func (v *InviscidFlux) SetServices(svc cca.Services) error {
	v.svc = svc
	if err := svc.RegisterUsesPort("states", TypeStatesPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("flux", TypeFluxPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(v, "inviscidflux", TypeInviscidFluxPort)
}

// ports lazily fetches the connected ports.
func (v *InviscidFlux) ports() (StatesPort, FluxPort) {
	if v.states == nil {
		v.states = cca.Use[StatesPort](v.svc, "states")
		v.flux = cca.Use[FluxPort](v.svc, "flux")
	}
	return v.states, v.flux
}

// PatchFluxes implements InviscidFluxPort: one X sweep (sequential access)
// and one Y sweep (strided access) through States and the flux component.
func (v *InviscidFlux) PatchFluxes(b *euler.Block, fx, fy *euler.EdgeField) {
	states, flux := v.ports()
	proc := v.svc.Context().Proc
	v.scratch.Reset(2 * euler.EdgeFieldFloats(b.Nx, b.Ny))
	qLX := v.scratch.EdgeField(proc, b.Nx, b.Ny, euler.X)
	qRX := v.scratch.EdgeField(proc, b.Nx, b.Ny, euler.X)
	states.Compute(b, euler.X, qLX, qRX)
	flux.Compute(qLX, qRX, fx)
	qLY := v.scratch.EdgeField(proc, b.Nx, b.Ny, euler.Y)
	qRY := v.scratch.EdgeField(proc, b.Nx, b.Ny, euler.Y)
	states.Compute(b, euler.Y, qLY, qRY)
	flux.Compute(qLY, qRY, fy)
}

// RK2 orchestrates the recursive processing of patches: a two-stage Heun
// update per level with ghost updates between stages, then the subcycled
// recursion into finer levels (the paper's L0, L1, L2, L2, L1, L2, L2
// sequence for a 3-level factor-2 hierarchy) followed by restriction.
type RK2 struct {
	svc  cca.Services
	mesh MeshPort
	ivf  InviscidFluxPort
	// keep backs the u0 copies, which live from stage 1 to the end of stage
	// 2; tmp backs one patch's fx and fy. Both are dead before Advance
	// recurses into the finer level, so every level shares them.
	keep, tmp euler.Scratch
}

// NewRK2 constructs the component.
func NewRK2() cca.Component { return &RK2{} }

// SetServices declares the used ports and registers the provides port.
func (r *RK2) SetServices(svc cca.Services) error {
	r.svc = svc
	if err := svc.RegisterUsesPort("mesh", TypeMeshPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("inviscidflux", TypeInviscidFluxPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(r, "integrator", TypeIntegratorPort)
}

// ports lazily fetches the connected ports.
func (r *RK2) ports() (MeshPort, InviscidFluxPort) {
	if r.mesh == nil {
		r.mesh = cca.Use[MeshPort](r.svc, "mesh")
		r.ivf = cca.Use[InviscidFluxPort](r.svc, "inviscidflux")
	}
	return r.mesh, r.ivf
}

// Advance implements IntegratorPort.
func (r *RK2) Advance(level int, dt float64) {
	mesh, ivf := r.ports()
	proc := r.svc.Context().Proc
	dx, dy := mesh.CellSize(level)

	// Stage 1: u1 = u0 + dt L(u0), in place, after a ghost update.
	mesh.GhostUpdate(level)
	patches := mesh.LocalPatches(level)
	keepRoom := 0
	for _, p := range patches {
		keepRoom += euler.BlockFloats(p.Block.Nx, p.Block.Ny, p.Block.Ng)
	}
	r.keep.Reset(keepRoom)
	// patchFluxes evaluates L(p) into fresh fx, fy and applies it in place.
	patchFluxes := func(p amr.PatchRef) {
		nx, ny := p.Block.Nx, p.Block.Ny
		r.tmp.Reset(euler.EdgeFieldFloats(nx, ny))
		fx := r.tmp.EdgeField(proc, nx, ny, euler.X)
		fy := r.tmp.EdgeField(proc, nx, ny, euler.Y)
		ivf.PatchFluxes(p.Block, fx, fy)
		euler.ApplyFluxes(proc, p.Block, p.Block, fx, fy, dt, dx, dy)
	}
	u0 := make([]*euler.Block, len(patches))
	for i, p := range patches {
		u0[i] = r.keep.Block(proc, p.Block.Nx, p.Block.Ny, p.Block.Ng)
		u0[i].CopyFrom(p.Block)
		patchFluxes(p)
	}

	// Stage 2: u = (u0 + u1 + dt L(u1)) / 2, after refreshing ghosts.
	mesh.GhostUpdate(level)
	for i, p := range patches {
		patchFluxes(p)
		euler.Average(proc, u0[i], p.Block, p.Block)
	}

	// Subcycle the finer level (Ratio substeps), then restrict its more
	// accurate solution onto this one.
	if level+1 < mesh.NumLevels() && mesh.LevelPatchCount(level+1) > 0 {
		n := mesh.Ratio()
		for k := 0; k < n; k++ {
			r.Advance(level+1, dt/float64(n))
		}
		mesh.Restrict(level + 1)
	}
}
