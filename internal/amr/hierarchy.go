package amr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/euler"
	"repro/internal/mpi"
)

// PatchMeta is the globally replicated description of one patch. Data for
// the patch exists only on Owner's rank.
type PatchMeta struct {
	// ID is the globally unique, deterministically assigned patch id.
	ID int
	// Level is the refinement level (0 = coarsest).
	Level int
	// Rect is the patch interior in level-local global cell coordinates.
	Rect Rect
	// Owner is the owning rank.
	Owner int
	// Parent is the ID of the enclosing patch one level coarser (-1 at
	// level 0).
	Parent int
}

// Config shapes the hierarchy.
type Config struct {
	// BaseNx, BaseNy are the level-0 grid extents in cells.
	BaseNx, BaseNy int
	// TileNx, TileNy tile the base grid into level-0 patches.
	TileNx, TileNy int
	// MaxLevels is the total number of levels (the paper ran 3).
	MaxLevels int
	// Ratio is the refinement factor between levels (the paper used 2).
	Ratio int
	// Ghost is the ghost-cell width (>= 2 for the MUSCL stencil).
	Ghost int
	// FlagThreshold is the refinement indicator threshold.
	FlagThreshold float64
	// BufferCells pads flagged regions so features stay refined between
	// regrids.
	BufferCells int
	// MinPatchSide is the minimum clustered patch side, in coarse cells.
	MinPatchSide int
	// FillRatio is the clustering efficiency target (flagged/total).
	FillRatio float64
	// Problem is the physical setup used for initial data.
	Problem euler.ShockInterfaceProblem
}

// DefaultConfig returns the case-study hierarchy: a 3-level refinement-
// factor-2 grid over the shock/interface domain.
func DefaultConfig() Config {
	return Config{
		BaseNx: 64, BaseNy: 16,
		TileNx: 16, TileNy: 8,
		MaxLevels: 3, Ratio: 2, Ghost: 2,
		FlagThreshold: 0.04, BufferCells: 2,
		MinPatchSide: 4, FillRatio: 0.7,
		Problem: euler.DefaultShockInterface(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.BaseNx <= 0 || c.BaseNy <= 0:
		return fmt.Errorf("amr: base grid %dx%d", c.BaseNx, c.BaseNy)
	case c.TileNx <= 0 || c.TileNy <= 0 || c.BaseNx%c.TileNx != 0 || c.BaseNy%c.TileNy != 0:
		return fmt.Errorf("amr: tiles %dx%d must divide base %dx%d", c.TileNx, c.TileNy, c.BaseNx, c.BaseNy)
	case c.MaxLevels < 1:
		return fmt.Errorf("amr: MaxLevels %d", c.MaxLevels)
	case c.Ratio < 2:
		return fmt.Errorf("amr: Ratio %d", c.Ratio)
	case c.Ghost < 2:
		return fmt.Errorf("amr: Ghost %d (MUSCL needs 2)", c.Ghost)
	}
	return nil
}

// Hierarchy is the SAMR patch hierarchy of one rank: replicated metadata
// for every level plus the data blocks this rank owns. It is a collective
// over its rank's world: New, GhostExchange, Regrid, LoadBalance,
// DensityImage and TotalMass are called on every rank together.
//
// What the per-step path derives from the structure (each level's local
// patch list and ghost-exchange plan) is cached per level and derived again
// only after the structure changes. Every change — construction, Regrid,
// LoadBalance — bumps gen, which makes every cache stale. A rebuild
// allocates new lists and never writes an old one, so a list handed out
// before a change stays what it was. The exchange's receive and pack
// buffers and DensityImage's partial image live here too and only grow:
// they are host memory the simulated machine never sees.
type Hierarchy struct {
	cfg    Config
	r      *mpi.Rank
	levels [][]PatchMeta
	blocks map[int]*euler.Block
	nextID int

	gen    uint64
	caches []levelCache

	recvBufs [][]float64 // by peer rank
	pack     []float64
	reqs     []*mpi.Request
	image    []float64
}

// levelCache holds one level's derived lists, valid while gen equals the
// hierarchy's.
type levelCache struct {
	gen     uint64
	patches []PatchRef
	plan    exchangePlan
}

// New builds the hierarchy on rank, collectively with every other rank of
// its world: level-0 tiling, initial data, and the initial refinement
// cascade (each level flagged from analytic initial data).
func New(cfg Config, rank *mpi.Rank) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rank == nil {
		return nil, fmt.Errorf("amr: a hierarchy needs a rank")
	}
	h := &Hierarchy{
		cfg:      cfg,
		r:        rank,
		levels:   make([][]PatchMeta, cfg.MaxLevels),
		blocks:   make(map[int]*euler.Block),
		caches:   make([]levelCache, cfg.MaxLevels),
		recvBufs: make([][]float64, rank.Comm.Size()),
	}
	// Level-0 tiling with contiguous block distribution over ranks.
	tilesX := cfg.BaseNx / cfg.TileNx
	tilesY := cfg.BaseNy / cfg.TileNy
	nTiles := tilesX * tilesY
	p := h.Size()
	for tj := 0; tj < tilesY; tj++ {
		for ti := 0; ti < tilesX; ti++ {
			idx := tj*tilesX + ti
			m := PatchMeta{
				ID:     h.nextID,
				Level:  0,
				Rect:   NewRect(ti*cfg.TileNx, tj*cfg.TileNy, cfg.TileNx, cfg.TileNy),
				Owner:  idx * p / nTiles,
				Parent: -1,
			}
			h.nextID++
			h.levels[0] = append(h.levels[0], m)
			if m.Owner == h.Rank() {
				h.blocks[m.ID] = h.newPatchBlock(m, true)
			}
		}
	}
	h.gen++ // level 0 exists: the first generation
	// Initial refinement cascade: flag from the just-initialized data.
	for lev := 0; lev < cfg.MaxLevels-1; lev++ {
		h.GhostExchange(lev)
		h.regridLevel(lev, true)
	}
	return h, nil
}

// Rank returns this rank's id.
func (h *Hierarchy) Rank() int { return h.r.Rank() }

// Size returns the number of ranks.
func (h *Hierarchy) Size() int { return h.r.Comm.Size() }

// NumLevels returns the number of levels currently present.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the replicated metadata of one level (do not mutate).
func (h *Hierarchy) Level(lev int) []PatchMeta {
	if lev < 0 || lev >= len(h.levels) {
		return nil
	}
	return h.levels[lev]
}

// Block returns the local data block for a patch ID, or nil if the patch is
// remote.
func (h *Hierarchy) Block(id int) *euler.Block { return h.blocks[id] }

// PatchRef pairs a patch's metadata with its local data.
type PatchRef struct {
	Meta  PatchMeta
	Block *euler.Block
}

// LocalPatches returns this rank's patches at a level, ordered by ID. The
// list is the level's cached one, shared by every caller until the next
// structural change (do not mutate). Its capacity is its length, so an
// append copies it; a later change builds a new list and leaves this one as
// it is.
func (h *Hierarchy) LocalPatches(lev int) []PatchRef {
	if lev < 0 || lev >= len(h.levels) {
		return nil
	}
	return h.cached(lev).patches
}

// cached returns a level's derived lists, deriving them again if the
// structure changed since they were.
func (h *Hierarchy) cached(lev int) *levelCache {
	c := &h.caches[lev]
	if c.gen != h.gen {
		*c = levelCache{
			gen:     h.gen,
			patches: h.localPatches(lev),
			plan:    derivePlan(h.levels[lev], h.cfg.Ghost, h.Rank()),
		}
	}
	return c
}

// localPatches builds a level's local patch list afresh, nil if empty.
func (h *Hierarchy) localPatches(lev int) []PatchRef {
	var out []PatchRef
	for _, m := range h.levels[lev] {
		if m.Owner == h.Rank() {
			out = append(out, PatchRef{Meta: m, Block: h.blocks[m.ID]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out[:len(out):len(out)]
}

// CellSize returns the mesh spacing at a level.
func (h *Hierarchy) CellSize(lev int) (dx, dy float64) {
	f := 1.0
	for l := 0; l < lev; l++ {
		f *= float64(h.cfg.Ratio)
	}
	return h.cfg.Problem.Lx / (float64(h.cfg.BaseNx) * f),
		h.cfg.Problem.Ly / (float64(h.cfg.BaseNy) * f)
}

// levelDomain returns the whole-domain rectangle at a level's resolution.
func (h *Hierarchy) levelDomain(lev int) Rect {
	f := 1
	for l := 0; l < lev; l++ {
		f *= h.cfg.Ratio
	}
	return NewRect(0, 0, h.cfg.BaseNx*f, h.cfg.BaseNy*f)
}

// newPatchBlock allocates (and optionally analytically initializes) the
// data block for a patch this rank owns.
func (h *Hierarchy) newPatchBlock(m PatchMeta, initData bool) *euler.Block {
	b := euler.NewBlock(h.r.Proc, m.Rect.Nx(), m.Rect.Ny(), h.cfg.Ghost)
	if initData {
		dx, dy := h.CellSize(m.Level)
		h.cfg.Problem.InitBlock(b, float64(m.Rect.I0)*dx, float64(m.Rect.J0)*dy, dx, dy)
	}
	return b
}

// MaxWaveSpeed returns the largest wave speed over all local patches (the
// driver reduces it across ranks for the CFL step).
func (h *Hierarchy) MaxWaveSpeed() float64 {
	maxS := 0.0
	for lev := 0; lev < len(h.levels); lev++ {
		for _, p := range h.LocalPatches(lev) {
			if s := p.Block.MaxWaveSpeed(); s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

// LevelStats summarizes one level.
type LevelStats struct {
	Patches int
	Cells   int
}

// Stats returns per-level patch and cell counts (from replicated metadata,
// identical on every rank).
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for lev, metas := range h.levels {
		for _, m := range metas {
			out[lev].Patches++
			out[lev].Cells += m.Rect.Area()
		}
	}
	return out
}

// DensityImage composes the density field at the finest resolution,
// coarse levels first so finer data overwrites them (Fig. 1's plotted
// field). The per-level partial images are summed across ranks (a
// collective); every rank returns the full image.
func (h *Hierarchy) DensityImage() (nx, ny int, img []float64) {
	fine := h.levelDomain(len(h.levels) - 1)
	nx, ny = fine.Nx(), fine.Ny()
	img = make([]float64, nx*ny)
	h.image = grown(h.image, nx*ny)
	part := h.image
	scale := 1
	for l := 0; l < len(h.levels); l++ {
		scale = 1
		for k := l; k < len(h.levels)-1; k++ {
			scale *= h.cfg.Ratio
		}
		clear(part)
		for _, p := range h.LocalPatches(l) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					rho := p.Block.At(i, j)[euler.IRho]
					gi0 := (p.Meta.Rect.I0 + i) * scale
					gj0 := (p.Meta.Rect.J0 + j) * scale
					for dj := 0; dj < scale; dj++ {
						for di := 0; di < scale; di++ {
							part[(gj0+dj)*nx+gi0+di] = rho
						}
					}
				}
			}
		}
		for k, v := range h.r.Comm.Allreduce(mpi.OpSum, part) {
			if v != 0 {
				img[k] = v
			}
		}
	}
	return nx, ny, img
}

// TotalMass integrates density over the hierarchy (each region counted at
// its finest covering level), a conservation diagnostic. It is a collective:
// each rank sums its own patches and every rank returns the Allreduce of the
// sums.
func (h *Hierarchy) TotalMass() float64 {
	var mass float64
	for lev := len(h.levels) - 1; lev >= 0; lev-- {
		dx, dy := h.CellSize(lev)
		for _, p := range h.LocalPatches(lev) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					gi, gj := p.Meta.Rect.I0+i, p.Meta.Rect.J0+j
					if lev < len(h.levels)-1 && h.coveredByFiner(lev, gi, gj) {
						continue
					}
					mass += p.Block.At(i, j)[euler.IRho] * dx * dy
				}
			}
		}
	}
	return h.r.Comm.Allreduce(mpi.OpSum, []float64{mass})[0]
}

// coveredByFiner reports whether cell (gi,gj) at level lev is covered by a
// patch at level lev+1.
func (h *Hierarchy) coveredByFiner(lev, gi, gj int) bool {
	fi, fj := gi*h.cfg.Ratio, gj*h.cfg.Ratio
	for _, m := range h.Level(lev + 1) {
		if fi >= m.Rect.I0 && fi < m.Rect.I1 && fj >= m.Rect.J0 && fj < m.Rect.J1 {
			return true
		}
	}
	return false
}

// parentOf returns the metadata of a patch's parent.
func (h *Hierarchy) parentOf(m PatchMeta) (PatchMeta, bool) {
	if m.Level == 0 || m.Parent < 0 {
		return PatchMeta{}, false
	}
	for _, q := range h.Level(m.Level - 1) {
		if q.ID == m.Parent {
			return q, true
		}
	}
	return PatchMeta{}, false
}

// Imbalance returns max/mean of per-rank cell loads, from replicated
// metadata (identical on every rank). 1.0 is perfect balance.
func (h *Hierarchy) Imbalance() float64 {
	p := h.Size()
	loads := make([]float64, p)
	for _, metas := range h.levels {
		for _, m := range metas {
			loads[m.Owner] += float64(m.Rect.Area())
		}
	}
	var sum, maxL float64
	for _, l := range loads {
		sum += l
		maxL = math.Max(maxL, l)
	}
	if sum == 0 {
		return 1
	}
	return maxL / (sum / float64(p))
}
