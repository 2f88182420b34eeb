package amr

import (
	"sort"

	"repro/internal/euler"
	"repro/internal/mpi"
)

// LoadBalance redistributes level-0 patches — each moving together with its
// whole subtree of refined descendants — so that per-rank cell counts even
// out. The assignment is computed deterministically from the replicated
// metadata on every rank (no coordination messages); only the patch data
// migrates, via nonblocking sends drained with MPI_Waitsome (the paper's
// second AMRMesh source of Waitsome time: "load-balancing and domain
// (re-)decomposition"). It returns the number of patches that moved.
func (h *Hierarchy) LoadBalance() int {
	p := h.Size()
	if p <= 1 {
		return 0
	}

	// Subtree root (level-0 ancestor) of every patch.
	rootOf := map[int]int{}
	for _, m := range h.Level(0) {
		rootOf[m.ID] = m.ID
	}
	for lev := 1; lev < len(h.levels); lev++ {
		for _, m := range h.Level(lev) {
			rootOf[m.ID] = rootOf[m.Parent]
		}
	}

	// Subtree loads.
	load := map[int]int{}
	for _, metas := range h.levels {
		for _, m := range metas {
			load[rootOf[m.ID]] += m.Rect.Area()
		}
	}

	// Deterministic greedy assignment: heaviest subtree first onto the
	// least-loaded rank.
	roots := make([]int, 0, len(load))
	for id := range load {
		roots = append(roots, id)
	}
	sort.Slice(roots, func(a, b int) bool {
		if load[roots[a]] != load[roots[b]] {
			return load[roots[a]] > load[roots[b]]
		}
		return roots[a] < roots[b]
	})
	rankLoad := make([]int, p)
	assign := map[int]int{}
	for _, id := range roots {
		best := 0
		for r := 1; r < p; r++ {
			if rankLoad[r] < rankLoad[best] {
				best = r
			}
		}
		assign[id] = best
		rankLoad[best] += load[id]
	}

	// Plan migrations.
	me := h.Rank()
	type move struct {
		meta     PatchMeta
		newOwner int
	}
	var outgoing, incoming []move
	moved := 0
	for lev := range h.levels {
		for i, m := range h.levels[lev] {
			newOwner := assign[rootOf[m.ID]]
			if newOwner == m.Owner {
				continue
			}
			moved++
			if m.Owner == me {
				outgoing = append(outgoing, move{meta: m, newOwner: newOwner})
			}
			if newOwner == me {
				incoming = append(incoming, move{meta: m, newOwner: newOwner})
			}
			h.levels[lev][i].Owner = newOwner
		}
	}
	if moved == 0 {
		return moved
	}

	comm := h.r.Comm
	// Post receives for incoming patch data (full blocks, ghosts included).
	var reqs []*mpi.Request
	newBlocks := make([]*euler.Block, len(incoming))
	bufs := make([][]float64, len(incoming))
	for i, mv := range incoming {
		b := euler.NewBlock(h.r.Proc, mv.meta.Rect.Nx(), mv.meta.Rect.Ny(), h.cfg.Ghost)
		newBlocks[i] = b
		bufs[i] = make([]float64, euler.NVars*len(b.U[0]))
		reqs = append(reqs, comm.Irecv(mv.meta.Owner, tagLB+mv.meta.ID, bufs[i]))
	}
	// Ship outgoing blocks.
	for _, mv := range outgoing {
		b := h.blocks[mv.meta.ID]
		buf := h.pack[:0]
		for v := 0; v < euler.NVars; v++ {
			buf = append(buf, b.U[v]...)
		}
		h.pack = buf
		h.r.Proc.Advance(float64(8*len(buf)) / packCopyBytesPerUS)
		comm.Isend(mv.newOwner, tagLB+mv.meta.ID, buf)
		delete(h.blocks, mv.meta.ID)
	}
	// Drain with Waitsome, then land the data.
	for {
		if comm.Waitsome(reqs) == nil {
			break
		}
	}
	for i, mv := range incoming {
		b := newBlocks[i]
		n := len(b.U[0])
		for v := 0; v < euler.NVars; v++ {
			copy(b.U[v], bufs[i][v*n:(v+1)*n])
		}
		h.r.Proc.Advance(float64(8*len(bufs[i])) / packCopyBytesPerUS)
		h.blocks[mv.meta.ID] = b
	}
	h.gen++ // owners and blocks moved: every level's cached lists are stale
	return moved
}
