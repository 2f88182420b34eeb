// Package components implements the paper's case-study application (Fig. 2)
// as CCA components: ShockDriver orchestrating the simulation, AMRMesh
// managing the SAMR patches (and all message passing), RK2 driving the
// recursive level processing, InviscidFlux composing the per-patch flux
// evaluation out of the States and EFMFlux/GodunovFlux components, plus the
// PMM components — TauMeasurement, Mastermind, and the proxies (sc_proxy,
// g_proxy / efm_proxy, icc_proxy) interposed between InviscidFlux/RK2 and
// the components they monitor.
//
// The proxies are generated into proxies_gen.go by cmd/proxygen from the
// //pmm:monitor directives below, the paper's §6 mark-up of the arguments
// that affect performance: after editing a port, run go generate.
//
// Every component runs inside a framework that RunSCMD built on one rank, so
// svc.Context() is that rank: the kernels are charged to its processor, the
// proxies' dispatches to its clock, the mesh's messages to its communicator
// and the measurements to its TAU profile. No component has a second,
// rankless way to run.
package components

import (
	"repro/internal/amr"
	"repro/internal/euler"
)

//go:generate go run ../../cmd/proxygen

// Port type identifiers used by the assembly's type checking.
const (
	TypeStatesPort       = "StatesPort"
	TypeFluxPort         = "FluxPort"
	TypeMeshPort         = "MeshPort"
	TypeIntegratorPort   = "IntegratorPort"
	TypeInviscidFluxPort = "InviscidFluxPort"
	TypeMonitorPort      = "MonitorPort"
	TypeMeasurementPort  = "MeasurementPort"
	TypeGoPort           = "GoPort"
)

// StatesPort computes limited left/right interface states for a patch along
// one sweep direction — the paper's States component functionality, with
// its two (sequential/strided) operating modes.
type StatesPort interface {
	//pmm:monitor Q=float64(b.Cells()) mode=float64(dir)
	Compute(b *euler.Block, dir euler.Dir, qL, qR *euler.EdgeField)
}

// FluxPort computes interface fluxes from reconstructed states. EFMFlux and
// GodunovFlux are interchangeable implementations (the paper's
// Quality-of-Service choice). It returns the kernel's internal iteration
// count (zero for non-iterative kernels).
type FluxPort interface {
	//pmm:monitor Q=float64(qL.NxCells*qL.NyCells) mode=float64(flux.Dir)
	Compute(qL, qR, flux *euler.EdgeField) (iters int)
}

// InviscidFluxPort assembles a patch's X and Y interface fluxes by invoking
// States and a flux component patch by patch.
type InviscidFluxPort interface {
	PatchFluxes(b *euler.Block, fx, fy *euler.EdgeField)
}

// MeshPort is the AMRMesh component's interface: hierarchy management,
// ghost updates, regridding, load balancing and inter-level transfer.
type MeshPort interface {
	// Initialize builds the hierarchy (collective; call after MPI_Init).
	Initialize() error
	// NumLevels, Ratio and LevelPatchCount describe the (replicated)
	// hierarchy structure.
	NumLevels() int
	Ratio() int
	LevelPatchCount(level int) int
	// LocalPatches lists this rank's patches at a level.
	LocalPatches(level int) []amr.PatchRef
	// CellSize returns the level's mesh spacing.
	CellSize(level int) (dx, dy float64)
	// GhostUpdate fills ghost cells at a level (the MPI-heavy call).
	//pmm:monitor level=float64(level)
	GhostUpdate(level int)
	// Regrid rebuilds the refined levels; prolongation dominates its cost.
	//pmm:monitor record=prolong
	Regrid()
	// LoadBalance redistributes patches; returns how many moved.
	//pmm:monitor
	LoadBalance() (moved int)
	// Restrict projects a fine level onto its parent level.
	//pmm:monitor level=float64(fineLevel)
	Restrict(fineLevel int)
	// GlobalMaxWaveSpeed reduces the CFL wave speed across ranks.
	GlobalMaxWaveSpeed() float64
	// Imbalance is max/mean per-rank load (1 = balanced).
	Imbalance() float64
}

// IntegratorPort advances one level (and, recursively, its finer levels)
// by dt — the RK2 component.
type IntegratorPort interface {
	Advance(level int, dt float64)
}
