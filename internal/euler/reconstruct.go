package euler

import "repro/internal/platform"

// EdgeField stores one value per cell interface for each conserved
// variable, in the same row-major orientation as the owning Block. X-face
// fields are written sequentially; Y-face fields are written with a stride
// of one row — which is why the paper's States/Flux components show two
// distinct operating modes.
type EdgeField struct {
	// Dir is the sweep direction the faces are normal to.
	Dir Dir
	// NxCells, NyCells are the interior cell extents of the owning block.
	NxCells, NyCells int
	// Q holds one plane per conserved variable; X faces have
	// (Nx+1)*Ny entries, Y faces Nx*(Ny+1).
	Q [NVars][]float64
	// addr holds per-plane virtual base addresses for cache accounting.
	addr [NVars]uint64
	// iters is the flux kernels' per-column iteration counts (faceFluxes),
	// kept across calls and across a Scratch's reuse of the header.
	iters []int
}

// NewEdgeField allocates the face storage for a block of nx-by-ny cells on
// zeroed storage of its own (the nil-Scratch case: see Scratch.EdgeField).
func NewEdgeField(proc *platform.Proc, nx, ny int, dir Dir) *EdgeField {
	return (*Scratch)(nil).EdgeField(proc, nx, ny, dir)
}

// Len returns the number of faces.
func (e *EdgeField) Len() int { return faceCount(e.NxCells, e.NyCells, e.Dir) }

// faceCount returns the number of dir-normal faces of an nx-by-ny block.
func faceCount(nx, ny int, dir Dir) int {
	if dir == X {
		return (nx + 1) * ny
	}
	return nx * (ny + 1)
}

// FaceIdx returns the flat index of face f along the sweep at transverse
// position t: for X fields, face (f, j=t) between cells (f-1, j) and (f, j);
// for Y fields, face (i=t, f) between cells (i, f-1) and (i, f).
func (e *EdgeField) FaceIdx(f, t int) int {
	if e.Dir == X {
		return t*(e.NxCells+1) + f
	}
	return f*e.NxCells + t
}

// AtFace returns the state vector stored at face (f, t).
func (e *EdgeField) AtFace(f, t int) Cons { return e.at(e.FaceIdx(f, t)) }

// at returns the state vector stored at flat face index k.
func (e *EdgeField) at(k int) Cons {
	return Cons{e.Q[0][k], e.Q[1][k], e.Q[2][k], e.Q[3][k], e.Q[4][k]}
}

// set stores a state vector at flat face index k.
func (e *EdgeField) set(k int, u Cons) {
	for v := 0; v < NVars; v++ {
		e.Q[v][k] = u[v]
	}
}

// sweepShape returns the face walk of e's directional sweep order (rows for
// X, columns for Y): nt lines of nf faces, where face f of line t lives at
// flat index t*stepT + f*stepF.
func (e *EdgeField) sweepShape() (nt, nf, stepT, stepF int) {
	if e.Dir == X {
		return e.NyCells, e.NxCells + 1, e.NxCells + 1, 1
	}
	return e.NxCells, e.NyCells + 1, 1, e.NxCells
}

// chargeSweep charges one directional pass over plane v of the face field
// (plane-major; used where interleaving does not matter).
func (e *EdgeField) chargeSweep(proc *platform.Proc, v int) {
	if e.Dir == X {
		for j := 0; j < e.NyCells; j++ {
			e.chargeLineSegment(proc, v, j, false)
		}
	} else {
		for i := 0; i < e.NxCells; i++ {
			e.chargeLineSegment(proc, v, i, false)
		}
	}
}

// chargeLineSegment charges one row (X fields) or one column (Y fields) of
// plane v at transverse index t.
func (e *EdgeField) chargeLineSegment(proc *platform.Proc, v, t int, overlapped bool) {
	if e.Dir == X {
		proc.ChargeStreamHinted(e.addr[v]+uint64(8*e.FaceIdx(0, t)), e.NxCells+1, 8, overlapped)
		return
	}
	proc.ChargeStreamHinted(e.addr[v]+uint64(8*e.FaceIdx(0, t)), e.NyCells+1, 8*e.NxCells, overlapped)
}

// minmod is the slope limiter used by the MUSCL reconstruction.
func minmod(a, b float64) float64 {
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

// statesFlops is the floating-point work per cell of one States sweep
// (slope differences, limiter branches and extrapolation over NVars
// planes, costed as PAPI would count them).
const statesFlops = 9 * NVars

// States performs the paper's States computation: a second-order MUSCL
// reconstruction of left/right interface states along dir, reading the
// block (sequentially for X, strided for Y) and writing qL and qR in the
// same access pattern. The block needs at least 2 ghost layers.
func States(proc *platform.Proc, b *Block, dir Dir, qL, qR *EdgeField) {
	if b.Ng < 2 {
		panic("euler: States needs >= 2 ghost layers")
	}
	if qL.Dir != dir || qR.Dir != dir || qL.NxCells != b.Nx || qL.NyCells != b.Ny ||
		qR.NxCells != b.Nx || qR.NyCells != b.Ny {
		panic("euler: States edge-field geometry mismatch")
	}
	for v := 0; v < NVars; v++ {
		if dir == X {
			reconstructRows(b, b.U[v], qL.Q[v], qR.Q[v])
		} else {
			reconstructCols(b, b.U[v], qL.Q[v], qR.Q[v])
		}
	}
	// Account the work as the measured code does it: one read sweep per
	// input plane and one write sweep per output plane, interleaved per
	// row/column the way its stencil walks them (the loops above are free
	// to walk plane by plane; no face depends on another) — the
	// interleaving determines whether a strided pass's working set (all
	// planes of one column) still fits the cache, which is what separates
	// tall from wide patches in Figs. 4/5.
	chargeStatesPass(proc, b, dir, qL, qR)
	proc.ChargeFlops(statesFlops * b.Cells())
}

// chargeStatesPass charges the memory traffic of one States sweep with
// per-line (row or column) interleaving across all planes.
func chargeStatesPass(proc *platform.Proc, b *Block, dir Dir, qL, qR *EdgeField) {
	if dir == X {
		for j := 0; j < b.Ny; j++ {
			for v := 0; v < NVars; v++ {
				b.chargeRowSegment(proc, v, -1, j, b.Nx+2)
				qL.chargeLineSegment(proc, v, j, false)
				qR.chargeLineSegment(proc, v, j, false)
			}
		}
		return
	}
	for i := 0; i < b.Nx; i++ {
		for v := 0; v < NVars; v++ {
			b.chargeColSegment(proc, v, i, -1, b.Ny+2)
			qL.chargeLineSegment(proc, v, i, false)
			qR.chargeLineSegment(proc, v, i, false)
		}
	}
}

// reconstructRows computes the limited left/right X-face states of one
// plane u of b. Face f of row j lies between cells f-1 and f:
//
//	l = u[f-1] + 0.5*minmod(u[f-1]-u[f-2], u[f]-u[f-1])
//	r = u[f]   - 0.5*minmod(u[f]-u[f-1],   u[f+1]-u[f])
//
// The stencil slides along the row: each face loads one new cell and takes
// one new difference and one new limited slope, and inherits the other cell
// values, difference and slope from the face before it — the same
// expressions on the same operands, evaluated once instead of twice.
func reconstructRows(b *Block, u, l, r []float64) {
	nf := b.Nx + 1
	for j := 0; j < b.Ny; j++ {
		row := u[b.Idx(-2, j):][:nf+3] // cells -2 .. Nx+1
		lj, rj := l[j*nf:][:nf], r[j*nf:][:nf]
		um1, u0 := row[1], row[2]
		d0 := u0 - um1
		m0 := minmod(um1-row[0], d0)
		for f := range lj {
			up1 := row[f+3]
			d1 := up1 - u0
			m1 := minmod(d0, d1)
			lj[f] = um1 + 0.5*m0
			rj[f] = u0 - 0.5*m1
			um1, u0, d0, m0 = u0, up1, d1, m1
		}
	}
}

// reconstructCols is reconstructRows for Y faces, whose stencil runs down a
// column. It walks row by row instead, so every load and store is
// sequential: face row f reads cell rows f-2 .. f+1 and writes one row of
// each output plane.
func reconstructCols(b *Block, u, l, r []float64) {
	nx := b.Nx
	for f := 0; f <= b.Ny; f++ {
		um2 := u[b.Idx(0, f-2):][:nx]
		um1 := u[b.Idx(0, f-1):][:nx]
		u0 := u[b.Idx(0, f):][:nx]
		up1 := u[b.Idx(0, f+1):][:nx]
		lf, rf := l[f*nx:][:nx], r[f*nx:][:nx]
		for i := range lf {
			d0 := u0[i] - um1[i]
			lf[i] = um1[i] + 0.5*minmod(um1[i]-um2[i], d0)
			rf[i] = u0[i] - 0.5*minmod(d0, up1[i]-u0[i])
		}
	}
}
