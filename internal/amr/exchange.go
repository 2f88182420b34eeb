package amr

import (
	"fmt"
	"sort"

	"repro/internal/euler"
	"repro/internal/mpi"
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

// GhostExchange fills the ghost cells of every local patch at the level:
// first by prolongation from the (local) parent patches, then by same-level
// copies — rank-local directly, remote via nonblocking MPI drained with
// Waitsome — and finally by physical boundary conditions. This is one of
// the paper's two AMRMesh methods that account for its MPI_Waitsome time.
func (h *Hierarchy) GhostExchange(level int) {
	metas := h.Level(level)
	if len(metas) == 0 {
		return
	}
	me := h.Rank()

	// 1. Coarse-fine ghost fill from the local parent.
	if level > 0 {
		for _, p := range h.LocalPatches(level) {
			h.prolongGhosts(p)
		}
	}

	// 2. Same-level exchange. Region lists are derived from replicated
	// metadata in a canonical order, so sender and receiver pack and
	// unpack identically without headers.
	var local []copyRegion
	sendTo := map[int][]copyRegion{}
	recvFrom := map[int][]copyRegion{}
	for _, d := range metas {
		gz := d.Rect.Expand(h.cfg.Ghost)
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
				local = append(local, cr)
			case s.Owner == me:
				sendTo[d.Owner] = append(sendTo[d.Owner], cr)
			case d.Owner == me:
				recvFrom[s.Owner] = append(recvFrom[s.Owner], cr)
			}
		}
	}
	for _, cr := range local {
		h.copyLocalRegion(cr)
	}
	if len(sendTo) > 0 || len(recvFrom) > 0 {
		h.exchangeRemote(level, sendTo, recvFrom)
	}

	// 3. Physical boundary conditions override at the domain edge.
	dom := h.levelDomain(level)
	for _, p := range h.LocalPatches(level) {
		p.Block.FillBoundary(
			p.Meta.Rect.I0 == dom.I0, p.Meta.Rect.I1 == dom.I1,
			p.Meta.Rect.J0 == dom.J0, p.Meta.Rect.J1 == dom.J1)
	}
}

// exchangeRemote runs the nonblocking send/receive cycle for one level.
func (h *Hierarchy) exchangeRemote(level int, sendTo, recvFrom map[int][]copyRegion) {
	comm := h.r.Comm
	tag := tagGhost + level

	recvPeers := sortedPeers(recvFrom)
	var reqs []*mpi.Request
	recvBufs := make(map[int][]float64, len(recvPeers))
	for _, peer := range recvPeers {
		buf := make([]float64, regionsSize(recvFrom[peer]))
		recvBufs[peer] = buf
		reqs = append(reqs, comm.Irecv(peer, tag, buf))
	}
	for _, peer := range sortedPeers(sendTo) {
		buf := h.packRegions(sendTo[peer])
		comm.Isend(peer, tag, buf)
	}
	for {
		if comm.Waitsome(reqs) == nil {
			break
		}
	}
	for _, peer := range recvPeers {
		h.unpackRegions(recvFrom[peer], recvBufs[peer])
	}
}

// sortedPeers returns the map's keys in ascending order.
func sortedPeers(m map[int][]copyRegion) []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// regionsSize returns the number of float64 values a region list packs to.
func regionsSize(regions []copyRegion) int {
	n := 0
	for _, cr := range regions {
		n += euler.NVars * cr.r.Area()
	}
	return n
}

// packRegions serializes the region list from local source patches, in list
// order, var-major then row-major per region.
func (h *Hierarchy) packRegions(regions []copyRegion) []float64 {
	buf := make([]float64, 0, regionsSize(regions))
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
