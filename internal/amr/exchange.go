package amr

import (
	"fmt"
	"sort"

	"repro/internal/euler"
)

// Message tag bases: ghost exchanges are tagged by level, load-balance
// migrations by patch ID.
const (
	tagGhost = 1_000
	tagLB    = 1_000_000
)

// packCopyBytesPerUS is the local pack/unpack memory bandwidth charged to
// the virtual clock for message assembly.
const packCopyBytesPerUS = 1500.0

// copyRegion is one ghost-fill transfer: cells of region R (global level
// coordinates) copied from the interior of patch srcID into the ghost zone
// of patch dstID.
type copyRegion struct {
	srcID, dstID int
	r            Rect
}

// exchangePlan is one level's ghost-exchange schedule on one rank. Region
// lists are derived from replicated metadata in a canonical order, so sender
// and receiver pack and unpack identically without headers.
type exchangePlan struct {
	// local are the copies whose source and destination are both local.
	local []copyRegion
	// sends and recvs hold one region list per peer, by ascending peer.
	sends, recvs []peerRegions
}

// peerRegions is the region list exchanged with one peer, and the number of
// float64 values it packs to.
type peerRegions struct {
	peer    int
	regions []copyRegion
	size    int
}

// derivePlan builds rank me's exchange plan for one level's metadata.
func derivePlan(metas []PatchMeta, ghost, me int) exchangePlan {
	var plan exchangePlan
	sendTo := map[int][]copyRegion{}
	recvFrom := map[int][]copyRegion{}
	for _, d := range metas {
		gz := d.Rect.Expand(ghost)
		for _, s := range metas {
			if s.ID == d.ID {
				continue
			}
			reg, ok := gz.Intersect(s.Rect)
			if !ok {
				continue
			}
			cr := copyRegion{srcID: s.ID, dstID: d.ID, r: reg}
			switch {
			case s.Owner == me && d.Owner == me:
				plan.local = append(plan.local, cr)
			case s.Owner == me:
				sendTo[d.Owner] = append(sendTo[d.Owner], cr)
			case d.Owner == me:
				recvFrom[s.Owner] = append(recvFrom[s.Owner], cr)
			}
		}
	}
	plan.sends, plan.recvs = byPeer(sendTo), byPeer(recvFrom)
	return plan
}

// byPeer returns the map's region lists in ascending peer order.
func byPeer(m map[int][]copyRegion) []peerRegions {
	out := make([]peerRegions, 0, len(m))
	for p, regions := range m {
		out = append(out, peerRegions{peer: p, regions: regions, size: regionsSize(regions)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].peer < out[j].peer })
	return out
}

// GhostExchange fills the ghost cells of every local patch at the level:
// first by prolongation from the (local) parent patches, then by same-level
// copies — rank-local directly, remote via nonblocking MPI drained with
// Waitsome — and finally by physical boundary conditions. This is one of
// the paper's two AMRMesh methods that account for its MPI_Waitsome time.
// On a level whose structure has not changed since the last call it
// allocates nothing of its own: the plan, the patch list and the buffers
// are the hierarchy's.
func (h *Hierarchy) GhostExchange(level int) {
	if len(h.Level(level)) == 0 {
		return
	}
	c := h.cached(level)

	// 1. Coarse-fine ghost fill from the local parent.
	if level > 0 {
		for _, p := range c.patches {
			h.prolongGhosts(p)
		}
	}

	// 2. Same-level exchange.
	for _, cr := range c.plan.local {
		h.copyLocalRegion(cr)
	}
	if len(c.plan.sends) > 0 || len(c.plan.recvs) > 0 {
		h.exchangeRemote(level, &c.plan)
	}

	// 3. Physical boundary conditions override at the domain edge.
	dom := h.levelDomain(level)
	for _, p := range c.patches {
		p.Block.FillBoundary(
			p.Meta.Rect.I0 == dom.I0, p.Meta.Rect.I1 == dom.I1,
			p.Meta.Rect.J0 == dom.J0, p.Meta.Rect.J1 == dom.J1)
	}
}

// exchangeRemote runs the nonblocking send/receive cycle for one level. Each
// peer's receive buffer and the one pack buffer are reused from the last
// call: Isend copies the payload before it returns.
func (h *Hierarchy) exchangeRemote(level int, plan *exchangePlan) {
	comm := h.r.Comm
	tag := tagGhost + level

	reqs := h.reqs[:0]
	for _, pr := range plan.recvs {
		h.recvBufs[pr.peer] = grown(h.recvBufs[pr.peer], pr.size)
		reqs = append(reqs, comm.Irecv(pr.peer, tag, h.recvBufs[pr.peer]))
	}
	h.reqs = reqs
	for _, pr := range plan.sends {
		h.pack = h.packRegions(pr.regions, grown(h.pack, pr.size)[:0])
		comm.Isend(pr.peer, tag, h.pack)
	}
	for {
		if comm.Waitsome(reqs) == nil {
			break
		}
	}
	for _, pr := range plan.recvs {
		h.unpackRegions(pr.regions, h.recvBufs[pr.peer])
	}
}

// grown returns buf resliced to n values, reallocated only if its capacity
// is short. The values are not cleared.
func grown(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// regionsSize returns the number of float64 values a region list packs to.
func regionsSize(regions []copyRegion) int {
	n := 0
	for _, cr := range regions {
		n += euler.NVars * cr.r.Area()
	}
	return n
}

// packRegions serializes the region list from local source patches onto
// buf, in list order, var-major then row-major per region.
func (h *Hierarchy) packRegions(regions []copyRegion, buf []float64) []float64 {
	for _, cr := range regions {
		src, sm, ok := h.blockAndMeta(cr.srcID)
		if !ok {
			panic(fmt.Sprintf("amr: pack: source patch %d not local", cr.srcID))
		}
		for v := 0; v < euler.NVars; v++ {
			for j := cr.r.J0; j < cr.r.J1; j++ {
				for i := cr.r.I0; i < cr.r.I1; i++ {
					buf = append(buf, src.U[v][src.Idx(i-sm.Rect.I0, j-sm.Rect.J0)])
				}
			}
		}
	}
	h.r.Proc.Advance(float64(8*len(buf)) / packCopyBytesPerUS)
	return buf
}

// unpackRegions writes a received buffer into the ghost zones of the local
// destination patches, mirroring packRegions' order.
func (h *Hierarchy) unpackRegions(regions []copyRegion, buf []float64) {
	k := 0
	for _, cr := range regions {
		dst, dm, ok := h.blockAndMeta(cr.dstID)
		if !ok {
			panic(fmt.Sprintf("amr: unpack: destination patch %d not local", cr.dstID))
		}
		for v := 0; v < euler.NVars; v++ {
			for j := cr.r.J0; j < cr.r.J1; j++ {
				for i := cr.r.I0; i < cr.r.I1; i++ {
					dst.U[v][dst.Idx(i-dm.Rect.I0, j-dm.Rect.J0)] = buf[k]
					k++
				}
			}
		}
	}
	if k != len(buf) {
		panic(fmt.Sprintf("amr: unpack consumed %d of %d values", k, len(buf)))
	}
	h.r.Proc.Advance(float64(8*len(buf)) / packCopyBytesPerUS)
}

// copyLocalRegion performs a rank-local ghost fill.
func (h *Hierarchy) copyLocalRegion(cr copyRegion) {
	src, sm, ok := h.blockAndMeta(cr.srcID)
	if !ok {
		panic(fmt.Sprintf("amr: local copy: source %d missing", cr.srcID))
	}
	dst, dm, ok := h.blockAndMeta(cr.dstID)
	if !ok {
		panic(fmt.Sprintf("amr: local copy: destination %d missing", cr.dstID))
	}
	for v := 0; v < euler.NVars; v++ {
		for j := cr.r.J0; j < cr.r.J1; j++ {
			for i := cr.r.I0; i < cr.r.I1; i++ {
				dst.U[v][dst.Idx(i-dm.Rect.I0, j-dm.Rect.J0)] =
					src.U[v][src.Idx(i-sm.Rect.I0, j-sm.Rect.J0)]
			}
		}
	}
	h.r.Proc.Advance(float64(8*euler.NVars*cr.r.Area()) / packCopyBytesPerUS)
}

// blockAndMeta resolves a local patch's block and metadata.
func (h *Hierarchy) blockAndMeta(id int) (*euler.Block, PatchMeta, bool) {
	b, ok := h.blocks[id]
	if !ok {
		return nil, PatchMeta{}, false
	}
	for _, metas := range h.levels {
		for _, m := range metas {
			if m.ID == id {
				return b, m, true
			}
		}
	}
	return nil, PatchMeta{}, false
}
