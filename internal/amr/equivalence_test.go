package amr

import (
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/platform"
)

// stepHierarchyLevel0 advances every level-0 patch of a one-rank hierarchy
// by one forward-Euler step, mirroring what RK2's first stage does per patch.
func stepHierarchyLevel0(h *Hierarchy, dt float64) {
	dx, dy := h.CellSize(0)
	h.GhostExchange(0)
	for _, p := range h.LocalPatches(0) {
		stepBlock(h.r.Proc, p.Block, dt, dx, dy)
	}
}

// stepMonolithic advances a single big block covering the same domain.
func stepMonolithic(proc *platform.Proc, b *euler.Block, dt, dx, dy float64) {
	b.FillBoundary(true, true, true, true)
	stepBlock(proc, b, dt, dx, dy)
}

// stepBlock is one forward-Euler step of one block whose ghosts are filled.
func stepBlock(proc *platform.Proc, b *euler.Block, dt, dx, dy float64) {
	qLX := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.X)
	qRX := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.X)
	euler.States(proc, b, euler.X, qLX, qRX)
	fx := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.X)
	euler.GodunovFlux(proc, qLX, qRX, fx)
	qLY := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.Y)
	qRY := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.Y)
	euler.States(proc, b, euler.Y, qLY, qRY)
	fy := euler.NewEdgeField(proc, b.Nx, b.Ny, euler.Y)
	euler.GodunovFlux(proc, qLY, qRY, fy)
	euler.ApplyFluxes(proc, b, b, fx, fy, dt, dx, dy)
}

// TestDecomposedMatchesMonolithic is the strongest ghost-exchange
// correctness check: a single-level hierarchy tiled into 8 patches must
// evolve bit-identically to one monolithic block covering the domain,
// because the ghost fill supplies exactly the interior values a contiguous
// array would see.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseNx, cfg.BaseNy = 64, 16
	cfg.TileNx, cfg.TileNy = 16, 8
	cfg.MaxLevels = 1 // no refinement: pure domain decomposition
	onOneRank(t, cfg, func(h *Hierarchy) {
		mono := euler.NewBlock(h.r.Proc, cfg.BaseNx, cfg.BaseNy, 2)
		dx, dy := h.CellSize(0)
		cfg.Problem.InitBlock(mono, 0, 0, dx, dy)

		const steps = 6
		for s := 0; s < steps; s++ {
			speed := math.Max(h.MaxWaveSpeed(), mono.MaxWaveSpeed())
			dt := euler.CFLTimeStep(0.4, dx, dy, speed)
			stepHierarchyLevel0(h, dt)
			stepMonolithic(h.r.Proc, mono, dt, dx, dy)
		}

		worst := 0.0
		for _, p := range h.LocalPatches(0) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					up := p.Block.At(i, j)
					um := mono.At(p.Meta.Rect.I0+i, p.Meta.Rect.J0+j)
					for v := 0; v < euler.NVars; v++ {
						if d := math.Abs(up[v] - um[v]); d > worst {
							worst = d
						}
					}
				}
			}
		}
		if worst > 1e-12 {
			t.Errorf("decomposed and monolithic solutions diverge: max abs diff %g", worst)
		}
	})
}

// TestDecomposedMatchesMonolithicAfterManySteps pushes the comparison
// through shock passage across patch boundaries.
func TestDecomposedMatchesMonolithicAfterManySteps(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence run")
	}
	cfg := DefaultConfig()
	cfg.BaseNx, cfg.BaseNy = 48, 12
	cfg.TileNx, cfg.TileNy = 12, 6
	cfg.MaxLevels = 1
	onOneRank(t, cfg, func(h *Hierarchy) {
		mono := euler.NewBlock(h.r.Proc, cfg.BaseNx, cfg.BaseNy, 2)
		dx, dy := h.CellSize(0)
		cfg.Problem.InitBlock(mono, 0, 0, dx, dy)
		for s := 0; s < 40; s++ {
			speed := mono.MaxWaveSpeed()
			dt := euler.CFLTimeStep(0.4, dx, dy, speed)
			stepHierarchyLevel0(h, dt)
			stepMonolithic(h.r.Proc, mono, dt, dx, dy)
		}
		for _, p := range h.LocalPatches(0) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					up := p.Block.At(i, j)
					um := mono.At(p.Meta.Rect.I0+i, p.Meta.Rect.J0+j)
					for v := 0; v < euler.NVars; v++ {
						if math.Abs(up[v]-um[v]) > 1e-10 {
							t.Errorf("divergence at patch %d cell (%d,%d) var %d: %g vs %g",
								p.Meta.ID, i, j, v, up[v], um[v])
							return
						}
					}
				}
			}
		}
	})
}
