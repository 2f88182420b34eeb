package components

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/euler"
	"repro/internal/mpi"
)

// AMRMesh manages the patch hierarchy; nearly all of the application's
// message passing (ghost updates and load-balance migrations, both drained
// with MPI_Waitsome) happens inside this component.
type AMRMesh struct {
	svc cca.Services
	cfg amr.Config
	h   *amr.Hierarchy
}

// SetServices registers the provides port.
func (m *AMRMesh) SetServices(svc cca.Services) error {
	m.svc = svc
	return svc.AddProvidesPort(m, "mesh", TypeMeshPort)
}

// Hierarchy exposes the underlying hierarchy (for harness inspection).
func (m *AMRMesh) Hierarchy() *amr.Hierarchy { return m.h }

// Initialize implements MeshPort: collective hierarchy construction.
func (m *AMRMesh) Initialize() error {
	h, err := amr.New(m.cfg, m.svc.Context())
	if err != nil {
		return err
	}
	m.h = h
	return nil
}

// ensure panics if the mesh was not initialized — using the mesh before
// Initialize is an assembly ordering bug.
func (m *AMRMesh) ensure() *amr.Hierarchy {
	if m.h == nil {
		panic("components: AMRMesh used before Initialize")
	}
	return m.h
}

// NumLevels implements MeshPort.
func (m *AMRMesh) NumLevels() int { return m.ensure().NumLevels() }

// Ratio implements MeshPort.
func (m *AMRMesh) Ratio() int { return m.cfg.Ratio }

// LevelPatchCount implements MeshPort (replicated metadata: identical on
// every rank, so the recursion structure is globally consistent).
func (m *AMRMesh) LevelPatchCount(level int) int { return len(m.ensure().Level(level)) }

// LocalPatches implements MeshPort.
func (m *AMRMesh) LocalPatches(level int) []amr.PatchRef { return m.ensure().LocalPatches(level) }

// CellSize implements MeshPort.
func (m *AMRMesh) CellSize(level int) (float64, float64) { return m.ensure().CellSize(level) }

// GhostUpdate implements MeshPort.
func (m *AMRMesh) GhostUpdate(level int) { m.ensure().GhostExchange(level) }

// Regrid implements MeshPort.
func (m *AMRMesh) Regrid() { m.ensure().Regrid() }

// LoadBalance implements MeshPort.
func (m *AMRMesh) LoadBalance() int { return m.ensure().LoadBalance() }

// Restrict implements MeshPort.
func (m *AMRMesh) Restrict(fineLevel int) { m.ensure().Restrict(fineLevel) }

// GlobalMaxWaveSpeed implements MeshPort: local maximum reduced with
// MPI_Allreduce (a Fig. 3 profile row).
func (m *AMRMesh) GlobalMaxWaveSpeed() float64 {
	s := m.ensure().MaxWaveSpeed()
	return m.svc.Context().Comm.Allreduce(mpi.OpMax, []float64{s})[0]
}

// Imbalance implements MeshPort.
func (m *AMRMesh) Imbalance() float64 { return m.ensure().Imbalance() }

// DriverConfig parameterizes the ShockDriver's main loop.
type DriverConfig struct {
	// Steps is the number of coarse time steps.
	Steps int
	// CFL is the Courant number for the stable time step.
	CFL float64
	// RegridInterval re-flags the hierarchy every so many coarse steps
	// (0 disables regridding).
	RegridInterval int
	// LoadBalanceThreshold triggers a redistribution when Imbalance()
	// exceeds it.
	LoadBalanceThreshold float64
	// MaxLoadBalances caps how many redistributions may happen (the
	// paper's run was load-balanced exactly once).
	MaxLoadBalances int
	// DtInterval recomputes the CFL time step (a global reduction) every
	// so many steps, reusing it in between — the usual SAMR economy that
	// keeps MPI_Allreduce off the profile's hot rows.
	DtInterval int
}

// DefaultDriverConfig returns the case-study loop parameters.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{
		Steps: 16, CFL: 0.4, RegridInterval: 4,
		LoadBalanceThreshold: 1.20, MaxLoadBalances: 1,
		DtInterval: 4,
	}
}

// ShockDriver orchestrates the simulation: MPI setup, the CFL-limited time
// loop over the recursive integrator, periodic regrids, and (once) a load
// balance. It provides the GoPort that the framework's "go" command
// invokes.
type ShockDriver struct {
	svc cca.Services
	cfg DriverConfig

	// StepsTaken and SimTime expose the run's progress for inspection.
	StepsTaken int
	SimTime    float64
	balances   int
}

// SetServices declares used ports and registers the GoPort.
func (d *ShockDriver) SetServices(svc cca.Services) error {
	d.svc = svc
	if err := svc.RegisterUsesPort("integrator", TypeIntegratorPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("mesh", TypeMeshPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(d, "go", TypeGoPort)
}

// Go implements cca.GoPort: the application main. The whole body runs
// under the "int main(int, char **)" timer so the profile's top row matches
// Fig. 3.
func (d *ShockDriver) Go() error {
	ctx := d.svc.Context()
	ip, err := d.svc.GetPort("integrator")
	if err != nil {
		return err
	}
	mp, err := d.svc.GetPort("mesh")
	if err != nil {
		return err
	}
	integrator := ip.(IntegratorPort)
	mesh := mp.(MeshPort)

	ctx.Prof.Start("int main(int, char **)", "TAU_DEFAULT")
	defer ctx.Prof.Stop("int main(int, char **)")
	ctx.Comm.Init()
	ctx.Comm.ErrhandlerSet()
	ctx.Comm.KeyvalCreate()
	// CCAFFEINE duplicates the world communicator per component cohort.
	for i := 0; i < 3; i++ {
		ctx.Comm.Dup()
	}
	if err := mesh.Initialize(); err != nil {
		return fmt.Errorf("components: mesh initialization: %w", err)
	}
	ctx.Comm.Barrier()

	dx, dy := mesh.CellSize(0)
	dtEvery := d.cfg.DtInterval
	if dtEvery <= 0 {
		dtEvery = 1
	}
	var dt float64
	for step := 0; step < d.cfg.Steps; step++ {
		if step%dtEvery == 0 {
			speed := mesh.GlobalMaxWaveSpeed()
			// A safety margin covers wave-speed drift between recomputes.
			dt = 0.9 * euler.CFLTimeStep(d.cfg.CFL, dx, dy, speed)
		}
		integrator.Advance(0, dt)
		d.SimTime += dt
		d.StepsTaken++
		if d.cfg.RegridInterval > 0 && (step+1)%d.cfg.RegridInterval == 0 && step != d.cfg.Steps-1 {
			mesh.Regrid()
			if d.balances < d.cfg.MaxLoadBalances && mesh.Imbalance() > d.cfg.LoadBalanceThreshold {
				mesh.LoadBalance()
				d.balances++
			}
		}
		ctx.Comm.Wtime()
	}

	ctx.Comm.Barrier()
	ctx.Comm.Finalize()
	return nil
}
