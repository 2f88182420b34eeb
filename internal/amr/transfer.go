package amr

import "repro/internal/euler"

// prolongFlopsPerCell and restrictFlopsPerCell cost the inter-level
// transfer arithmetic (the icc_proxy::prolong / ::restrict rows of Fig. 3).
const (
	prolongFlopsPerCell  = 8 * euler.NVars
	restrictFlopsPerCell = 5 * euler.NVars
)

// prolongGhosts fills the ghost ring of a fine patch by piecewise-constant
// injection from its (local) parent. Same-level exchange and physical BCs
// later overwrite wherever better data exists.
func (h *Hierarchy) prolongGhosts(p PatchRef) {
	q, ok := h.parentOf(p.Meta)
	if !ok {
		return
	}
	pq := h.blocks[q.ID]
	if pq == nil {
		panic("amr: prolongGhosts: parent not local (subtree ownership violated)")
	}
	r := h.cfg.Ratio
	dom := h.levelDomain(p.Meta.Level)
	gz := p.Meta.Rect.Expand(h.cfg.Ghost)
	for gj := gz.J0; gj < gz.J1; gj++ {
		for gi := gz.I0; gi < gz.I1; gi++ {
			// ghost ring only
			if gi >= p.Meta.Rect.I0 && gi < p.Meta.Rect.I1 &&
				gj >= p.Meta.Rect.J0 && gj < p.Meta.Rect.J1 {
				continue
			}
			// outside the domain: physical BC handles it later
			if gi < dom.I0 || gi >= dom.I1 || gj < dom.J0 || gj >= dom.J1 {
				continue
			}
			ci, cj := floorDiv(gi, r), floorDiv(gj, r)
			u := pq.At(ci-q.Rect.I0, cj-q.Rect.J0)
			p.Block.Set(gi-p.Meta.Rect.I0, gj-p.Meta.Rect.J0, u)
		}
	}
	ring := gz.Area() - p.Meta.Rect.Area()
	h.r.Proc.ChargeFlops(2 * ring) // index mapping cost
}

// ProlongInterior fills the interior of a fine block from its parent with
// slope-limited linear interpolation (conservative for even ratios). It is
// used to seed newly created patches at regrid time and is the work behind
// the paper's icc_proxy::prolong row.
func (h *Hierarchy) ProlongInterior(m PatchMeta, b *euler.Block) {
	q, ok := h.parentOf(m)
	if !ok {
		panic("amr: ProlongInterior on level-0 patch")
	}
	pq := h.blocks[q.ID]
	if pq == nil {
		panic("amr: ProlongInterior: parent not local")
	}
	r := h.cfg.Ratio
	for fj := m.Rect.J0; fj < m.Rect.J1; fj++ {
		for fi := m.Rect.I0; fi < m.Rect.I1; fi++ {
			ci, cj := floorDiv(fi, r), floorDiv(fj, r)
			li, lj := ci-q.Rect.I0, cj-q.Rect.J0
			uc := pq.At(li, lj)
			uxm, uxp := pq.At(li-1, lj), pq.At(li+1, lj)
			uym, uyp := pq.At(li, lj-1), pq.At(li, lj+1)
			// Offset of the fine cell center within the coarse cell, in
			// coarse-cell units (±0.25 for ratio 2).
			ox := (float64(fi-ci*r)+0.5)/float64(r) - 0.5
			oy := (float64(fj-cj*r)+0.5)/float64(r) - 0.5
			var u euler.Cons
			for v := 0; v < euler.NVars; v++ {
				sx := mm(uc[v]-uxm[v], uxp[v]-uc[v])
				sy := mm(uc[v]-uym[v], uyp[v]-uc[v])
				u[v] = uc[v] + sx*ox + sy*oy
			}
			b.Set(fi-m.Rect.I0, fj-m.Rect.J0, u)
		}
	}
	h.r.Proc.ChargeFlops(prolongFlopsPerCell * m.Rect.Area())
}

// Restrict projects every local patch of fineLevel onto its parent by
// conservative averaging — the periodic interpolation of the more accurate
// fine solution onto the coarser levels (icc_proxy::restrict in Fig. 3).
func (h *Hierarchy) Restrict(fineLevel int) {
	if fineLevel <= 0 || fineLevel >= len(h.levels) {
		return
	}
	r := h.cfg.Ratio
	area := float64(r * r)
	for _, p := range h.LocalPatches(fineLevel) {
		q, ok := h.parentOf(p.Meta)
		if !ok {
			continue
		}
		pq := h.blocks[q.ID]
		if pq == nil {
			panic("amr: Restrict: parent not local")
		}
		cr := p.Meta.Rect.Coarsen(r)
		for cj := cr.J0; cj < cr.J1; cj++ {
			for ci := cr.I0; ci < cr.I1; ci++ {
				var acc euler.Cons
				for dj := 0; dj < r; dj++ {
					for di := 0; di < r; di++ {
						u := p.Block.At(ci*r+di-p.Meta.Rect.I0, cj*r+dj-p.Meta.Rect.J0)
						for v := 0; v < euler.NVars; v++ {
							acc[v] += u[v]
						}
					}
				}
				for v := 0; v < euler.NVars; v++ {
					acc[v] /= area
				}
				pq.Set(ci-q.Rect.I0, cj-q.Rect.J0, acc)
			}
		}
		h.r.Proc.ChargeFlops(restrictFlopsPerCell * p.Meta.Rect.Area())
	}
}

// mm is the minmod limiter (duplicated from euler to keep the packages
// decoupled at this tiny cost).
func mm(a, b float64) float64 {
	if a > 0 && b > 0 {
		if a < b {
			return a
		}
		return b
	}
	if a < 0 && b < 0 {
		if a > b {
			return a
		}
		return b
	}
	return 0
}
