package amr

import (
	"testing"

	"repro/internal/euler"
)

// refinedCentroidX returns the cell-weighted x-centroid of a level's
// patches, in level-0 cell units.
func refinedCentroidX(h *Hierarchy, lev int) float64 {
	f := 1.0
	for l := 0; l < lev; l++ {
		f *= float64(h.cfg.Ratio)
	}
	var wsum, xsum float64
	for _, m := range h.Level(lev) {
		cx := float64(m.Rect.I0+m.Rect.I1) / 2 / f
		a := float64(m.Rect.Area())
		xsum += cx * a
		wsum += a
	}
	if wsum == 0 {
		return 0
	}
	return xsum / wsum
}

// TestRegridTracksMovingShock advances the solution until the shock has
// moved, regrids, and verifies the refined region followed it — the
// feature-tracking behaviour SAMR exists for (and the reason the paper's
// Fig. 9 clusters split after the regrid).
func TestRegridTracksMovingShock(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxLevels = 2
	onOneRank(t, cfg, func(h *Hierarchy) {
		before := refinedCentroidX(h, 1)
		if before == 0 {
			t.Error("no initial refinement")
			return
		}

		// Advance level 0 long enough for the shock to cross cells, keeping
		// level 1 data irrelevant (we only flag from level 0 here).
		dx, dy := h.CellSize(0)
		for s := 0; s < 30; s++ {
			speed := 0.0
			for _, p := range h.LocalPatches(0) {
				if v := p.Block.MaxWaveSpeed(); v > speed {
					speed = v
				}
			}
			dt := euler.CFLTimeStep(0.4, dx, dy, speed)
			stepHierarchyLevel0(h, dt)
		}
		h.Regrid()
		after := refinedCentroidX(h, 1)
		if after <= before {
			t.Errorf("refined region did not follow the shock: centroid %g -> %g", before, after)
		}
		// Nesting still holds after the tracked regrid.
		for _, m := range h.Level(1) {
			q, ok := h.parentOf(m)
			if !ok || !q.Rect.Refine(cfg.Ratio).Contains(m.Rect) {
				t.Errorf("patch %v lost nesting after regrid", m.Rect)
				return
			}
		}
	})
}

// TestRepeatedRegridsStayBounded guards against runaway refinement: the
// flagged area must stay a modest fraction of the domain across regrids.
func TestRepeatedRegridsStayBounded(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		domain := h.levelDomain(1).Area()
		for round := 0; round < 4; round++ {
			h.Regrid()
			cells := 0
			for _, m := range h.Level(1) {
				cells += m.Rect.Area()
			}
			if cells > domain*3/4 {
				t.Errorf("round %d: level-1 coverage %d of %d cells — runaway refinement", round, cells, domain)
				return
			}
		}
	})
}
