package amr

import (
	"sort"

	"repro/internal/euler"
)

// proposal is one clustered refinement rectangle, in the coordinates of the
// level being created, tagged with its parent patch.
type proposal struct {
	parent int
	r      Rect
}

// Regrid rebuilds every refined level from fresh flags: level 1 from level
// 0 data, then level 2 from the new level 1, and so on. Existing fine data
// is preserved wherever old and new patches overlap; newly refined regions
// are seeded by prolongation. The grid hierarchy "subjected to a re-grid
// step during the simulation" is what splits the Fig. 9 clusters.
func (h *Hierarchy) Regrid() {
	for lev := 0; lev < h.cfg.MaxLevels-1; lev++ {
		h.GhostExchange(lev)
		h.regridLevel(lev, false)
	}
}

// regridLevel rebuilds level lev+1 from the flags of level lev. When
// initFromProblem is true (initial construction), new patches are filled
// analytically instead of by prolongation.
func (h *Hierarchy) regridLevel(lev int, initFromProblem bool) {
	props := h.localProposals(lev)
	all := h.gatherProposals(props)

	// Canonical ordering gives every rank the same patch IDs.
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		if x.r.J0 != y.r.J0 {
			return x.r.J0 < y.r.J0
		}
		if x.r.I0 != y.r.I0 {
			return x.r.I0 < y.r.I0
		}
		if x.r.J1 != y.r.J1 {
			return x.r.J1 < y.r.J1
		}
		return x.r.I1 < y.r.I1
	})

	ownerOf := map[int]int{}
	for _, m := range h.Level(lev) {
		ownerOf[m.ID] = m.Owner
	}
	newMetas := make([]PatchMeta, 0, len(all))
	for _, pr := range all {
		newMetas = append(newMetas, PatchMeta{
			ID:     h.nextID,
			Level:  lev + 1,
			Rect:   pr.r,
			Owner:  ownerOf[pr.parent],
			Parent: pr.parent,
		})
		h.nextID++
	}

	oldMetas := h.Level(lev + 1)
	me := h.Rank()
	for _, m := range newMetas {
		if m.Owner != me {
			continue
		}
		b := h.newPatchBlock(m, initFromProblem)
		if !initFromProblem {
			h.ProlongInterior(m, b)
			// Preserve existing fine data where the new patch overlaps old
			// ones (always rank-local: old and new children of one
			// level-lev footprint share its owner).
			for _, om := range oldMetas {
				if reg, ok := m.Rect.Intersect(om.Rect); ok {
					h.copyInterior(h.blocks[om.ID], om, b, m, reg)
				}
			}
		}
		h.blocks[m.ID] = b
	}
	for _, om := range oldMetas {
		delete(h.blocks, om.ID)
	}
	h.levels[lev+1] = newMetas
	h.gen++ // a new level: every level's cached lists are stale
}

// copyInterior copies region reg (global fine coordinates) from old patch
// data into a new block.
func (h *Hierarchy) copyInterior(src *euler.Block, sm PatchMeta, dst *euler.Block, dm PatchMeta, reg Rect) {
	if src == nil {
		panic("amr: copyInterior: old patch not local")
	}
	for v := 0; v < euler.NVars; v++ {
		for j := reg.J0; j < reg.J1; j++ {
			for i := reg.I0; i < reg.I1; i++ {
				dst.U[v][dst.Idx(i-dm.Rect.I0, j-dm.Rect.J0)] =
					src.U[v][src.Idx(i-sm.Rect.I0, j-sm.Rect.J0)]
			}
		}
	}
	h.r.Proc.Advance(float64(8*euler.NVars*reg.Area()) / packCopyBytesPerUS)
}

// localProposals flags and clusters every local patch of the level,
// returning child rectangles in fine coordinates.
func (h *Hierarchy) localProposals(lev int) []proposal {
	var out []proposal
	for _, p := range h.LocalPatches(lev) {
		flags := h.flagPatch(p)
		for _, r := range clusterFlags(flags, p.Meta.Rect, h.cfg) {
			out = append(out, proposal{parent: p.Meta.ID, r: r.Refine(h.cfg.Ratio)})
		}
	}
	return out
}

// flagPatch marks interior cells whose refinement indicator exceeds the
// threshold, then buffers the flags by BufferCells (clipped to the patch).
func (h *Hierarchy) flagPatch(p PatchRef) []bool {
	nx, ny := p.Meta.Rect.Nx(), p.Meta.Rect.Ny()
	flags := make([]bool, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if euler.GradientIndicator(p.Block, i, j) > h.cfg.FlagThreshold {
				flags[j*nx+i] = true
			}
		}
	}
	h.r.Proc.ChargeFlops(12 * nx * ny)
	if h.cfg.BufferCells <= 0 {
		return flags
	}
	buffered := make([]bool, nx*ny)
	bc := h.cfg.BufferCells
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if !flags[j*nx+i] {
				continue
			}
			for dj := -bc; dj <= bc; dj++ {
				for di := -bc; di <= bc; di++ {
					ii, jj := i+di, j+dj
					if ii >= 0 && ii < nx && jj >= 0 && jj < ny {
						buffered[jj*nx+ii] = true
					}
				}
			}
		}
	}
	return buffered
}

// clusterFlags groups flagged cells into rectangles by recursive bisection
// (a simplified Berger–Rigoutsos): accept a bounding box once it is
// efficient enough or small enough, otherwise split its longest axis.
// Rectangles are returned in the level's global (coarse) coordinates.
func clusterFlags(flags []bool, patch Rect, cfg Config) []Rect {
	nx := patch.Nx()
	var out []Rect
	var recurse func(r Rect)
	recurse = func(r Rect) {
		// Bounding box of flags within r (local coordinates).
		bb := Rect{I0: r.I1, J0: r.J1, I1: r.I0, J1: r.J0}
		count := 0
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if flags[j*nx+i] {
					count++
					bb.I0 = minInt(bb.I0, i)
					bb.J0 = minInt(bb.J0, j)
					bb.I1 = maxInt(bb.I1, i+1)
					bb.J1 = maxInt(bb.J1, j+1)
				}
			}
		}
		if count == 0 {
			return
		}
		eff := float64(count) / float64(bb.Area())
		if eff >= cfg.FillRatio || (bb.Nx() <= cfg.MinPatchSide && bb.Ny() <= cfg.MinPatchSide) {
			out = append(out, NewRect(patch.I0+bb.I0, patch.J0+bb.J0, bb.Nx(), bb.Ny()))
			return
		}
		if bb.Nx() >= bb.Ny() && bb.Nx() > cfg.MinPatchSide {
			mid := bb.I0 + bb.Nx()/2
			recurse(Rect{I0: bb.I0, J0: bb.J0, I1: mid, J1: bb.J1})
			recurse(Rect{I0: mid, J0: bb.J0, I1: bb.I1, J1: bb.J1})
			return
		}
		if bb.Ny() > cfg.MinPatchSide {
			mid := bb.J0 + bb.Ny()/2
			recurse(Rect{I0: bb.I0, J0: bb.J0, I1: bb.I1, J1: mid})
			recurse(Rect{I0: bb.I0, J0: mid, I1: bb.I1, J1: bb.J1})
			return
		}
		out = append(out, NewRect(patch.I0+bb.I0, patch.J0+bb.J0, bb.Nx(), bb.Ny()))
	}
	recurse(Rect{I0: 0, J0: 0, I1: nx, J1: patch.Ny()})
	return out
}

// gatherProposals exchanges regrid proposals across ranks (Allgather of a
// self-describing serialization) and returns the union.
func (h *Hierarchy) gatherProposals(local []proposal) []proposal {
	ser := make([]float64, 0, 1+5*len(local))
	ser = append(ser, float64(len(local)))
	for _, p := range local {
		ser = append(ser, float64(p.parent),
			float64(p.r.I0), float64(p.r.J0), float64(p.r.I1), float64(p.r.J1))
	}
	all := h.r.Comm.Allgather(ser)
	var out []proposal
	k := 0
	for rank := 0; rank < h.Size(); rank++ {
		n := int(all[k])
		k++
		for i := 0; i < n; i++ {
			out = append(out, proposal{
				parent: int(all[k]),
				r:      Rect{I0: int(all[k+1]), J0: int(all[k+2]), I1: int(all[k+3]), J1: int(all[k+4])},
			})
			k += 5
		}
	}
	return out
}
