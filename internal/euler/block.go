package euler

import "repro/internal/platform"

// Block is a rectangular patch of cells with ghost layers, storing NVars
// conserved-variable planes in row-major order. It is the "data array"
// passed between the paper's components: X sweeps walk it sequentially,
// Y sweeps stride by a full row.
type Block struct {
	// Nx, Ny are the interior extents in cells; Ng is the ghost width.
	Nx, Ny, Ng int
	// Stride is the padded row length, Nx + 2*Ng.
	Stride int
	// rows is the padded column count, Ny + 2*Ng.
	rows int
	// U holds one plane per conserved variable.
	U [NVars][]float64
	// addr holds per-plane virtual base addresses for cache accounting.
	addr [NVars]uint64
}

// NewBlock allocates a block of nx-by-ny interior cells with ng ghost
// layers on zeroed storage of its own (the nil-Scratch case: see
// Scratch.Block). The planes receive virtual addresses on proc's heap so
// kernels can charge their access streams.
func NewBlock(proc *platform.Proc, nx, ny, ng int) *Block {
	return (*Scratch)(nil).Block(proc, nx, ny, ng)
}

// Cells returns the number of interior cells (the paper's array size Q).
func (b *Block) Cells() int { return b.Nx * b.Ny }

// Idx returns the flat index of cell (i, j); i in [-Ng, Nx+Ng) and
// j in [-Ng, Ny+Ng), with (0,0) the first interior cell.
func (b *Block) Idx(i, j int) int {
	return (j+b.Ng)*b.Stride + (i + b.Ng)
}

// row returns the interior cells of row j of plane v.
func (b *Block) row(v, j int) []float64 {
	return b.U[v][b.Idx(0, j):][:b.Nx]
}

// At returns the conserved state of cell (i, j).
func (b *Block) At(i, j int) Cons {
	k := b.Idx(i, j)
	var u Cons
	for v := 0; v < NVars; v++ {
		u[v] = b.U[v][k]
	}
	return u
}

// Set stores the conserved state of cell (i, j).
func (b *Block) Set(i, j int, u Cons) {
	k := b.Idx(i, j)
	for v := 0; v < NVars; v++ {
		b.U[v][k] = u[v]
	}
}

// SetPrim stores a primitive state in cell (i, j).
func (b *Block) SetPrim(i, j int, w Prim) { b.Set(i, j, ConsFromPrim(w)) }

// PrimAt returns the primitive state of cell (i, j).
func (b *Block) PrimAt(i, j int) Prim { return PrimFromCons(b.At(i, j)) }

// CopyFrom copies all planes (including ghosts) from src, which must have
// identical geometry.
func (b *Block) CopyFrom(src *Block) {
	if src.Nx != b.Nx || src.Ny != b.Ny || src.Ng != b.Ng {
		panic("euler: CopyFrom geometry mismatch")
	}
	for v := 0; v < NVars; v++ {
		copy(b.U[v], src.U[v])
	}
}

// planeAddr returns the virtual address of element k of plane v.
func (b *Block) planeAddr(v, k int) uint64 { return b.addr[v] + uint64(8*k) }

// chargeRowSegment charges a sequential sweep over n cells of plane v
// starting at cell (i, j).
func (b *Block) chargeRowSegment(proc *platform.Proc, v, i, j, n int) {
	proc.ChargeStream(b.planeAddr(v, b.Idx(i, j)), n, 8)
}

// chargeColSegment charges a strided sweep over n cells of plane v starting
// at cell (i, j), striding one full padded row per element.
func (b *Block) chargeColSegment(proc *platform.Proc, v, i, j, n int) {
	proc.ChargeStream(b.planeAddr(v, b.Idx(i, j)), n, 8*b.Stride)
}

// chargeSweep charges one directional pass over the interior of plane v
// (plus the reconstruction halo), in the access pattern of dir.
func (b *Block) chargeSweep(proc *platform.Proc, v int, dir Dir) {
	if dir == X {
		for j := 0; j < b.Ny; j++ {
			b.chargeRowSegment(proc, v, -1, j, b.Nx+2)
		}
	} else {
		for i := 0; i < b.Nx; i++ {
			b.chargeColSegment(proc, v, i, -1, b.Ny+2)
		}
	}
}

// MaxWaveSpeed returns the largest |u|+c over the interior, the quantity
// the CFL condition needs (reduced across ranks by the driver).
func (b *Block) MaxWaveSpeed() float64 {
	maxS := 0.0
	for j := 0; j < b.Ny; j++ {
		for i := 0; i < b.Nx; i++ {
			w := b.PrimAt(i, j)
			c := w.SoundSpeed()
			if s := abs(w.U) + c; s > maxS {
				maxS = s
			}
			if s := abs(w.V) + c; s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FillBoundary applies physical boundary conditions to the ghost layers of
// sides that touch the domain boundary: zero-gradient (transmissive) in x,
// reflecting walls in y — the shock-tube setup of the case study.
// The four flags say whether each side is a physical boundary.
func (b *Block) FillBoundary(left, right, bottom, top bool) {
	if left {
		for j := -b.Ng; j < b.Ny+b.Ng; j++ {
			for g := 1; g <= b.Ng; g++ {
				b.Set(-g, j, b.At(0, j))
			}
		}
	}
	if right {
		for j := -b.Ng; j < b.Ny+b.Ng; j++ {
			for g := 1; g <= b.Ng; g++ {
				b.Set(b.Nx-1+g, j, b.At(b.Nx-1, j))
			}
		}
	}
	if bottom {
		for i := -b.Ng; i < b.Nx+b.Ng; i++ {
			for g := 1; g <= b.Ng; g++ {
				u := b.At(i, g-1)
				u[IMy] = -u[IMy] // reflect
				b.Set(i, -g, u)
			}
		}
	}
	if top {
		for i := -b.Ng; i < b.Nx+b.Ng; i++ {
			for g := 1; g <= b.Ng; g++ {
				u := b.At(i, b.Ny-g)
				u[IMy] = -u[IMy]
				b.Set(i, b.Ny-1+g, u)
			}
		}
	}
}
