// Package amr implements the Structured Adaptive Mesh Refinement substrate
// of the paper's case study (Berger–Oliger/Berger–Colella style, in the
// patch-tree variant of Quirk): a hierarchy of rectangular patches over a
// Cartesian base grid, refined by a constant factor per level, with
// flag-and-cluster regridding, ghost-cell exchange over MPI, conservative
// prolongation/restriction between levels, and workload-driven patch
// redistribution (the paper's "load-balancing and domain re-decomposition",
// both of which drain their nonblocking receives with MPI_Waitsome).
//
// Patch metadata is replicated on every rank (SCMD); patch data lives only
// on the owning rank. Fine patches are nested inside a single parent patch
// and inherit its owner, so inter-level transfers are rank-local and all
// message passing happens in same-level ghost exchanges and load-balance
// migrations — matching where the paper's profile finds its MPI time.
//
// A Hierarchy is a collective over its rank's world and always has a rank:
// New refuses a nil one, every patch block lives on the rank's processor,
// and the work done on it (flagging, transfers, ghost copies, migrations) is
// charged there. A single-process run is a one-rank world.
package amr

import "fmt"

// Rect is a half-open index rectangle [I0,I1) x [J0,J1) in the global cell
// coordinates of one refinement level.
type Rect struct {
	I0, J0, I1, J1 int
}

// NewRect builds a rectangle from origin and extents.
func NewRect(i0, j0, nx, ny int) Rect {
	return Rect{I0: i0, J0: j0, I1: i0 + nx, J1: j0 + ny}
}

// Nx returns the width in cells.
func (r Rect) Nx() int { return r.I1 - r.I0 }

// Ny returns the height in cells.
func (r Rect) Ny() int { return r.J1 - r.J0 }

// Area returns the cell count.
func (r Rect) Area() int { return r.Nx() * r.Ny() }

// Empty reports whether the rectangle contains no cells.
func (r Rect) Empty() bool { return r.I1 <= r.I0 || r.J1 <= r.J0 }

// Intersect returns the overlap of two rectangles and whether it is
// non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	out := Rect{
		I0: maxInt(r.I0, o.I0), J0: maxInt(r.J0, o.J0),
		I1: minInt(r.I1, o.I1), J1: minInt(r.J1, o.J1),
	}
	return out, !out.Empty()
}

// Expand grows the rectangle by g cells on every side.
func (r Rect) Expand(g int) Rect {
	return Rect{I0: r.I0 - g, J0: r.J0 - g, I1: r.I1 + g, J1: r.J1 + g}
}

// Refine maps the rectangle to the next finer level.
func (r Rect) Refine(ratio int) Rect {
	return Rect{I0: r.I0 * ratio, J0: r.J0 * ratio, I1: r.I1 * ratio, J1: r.J1 * ratio}
}

// Coarsen maps the rectangle to the next coarser level, rounding outward so
// the result covers the original.
func (r Rect) Coarsen(ratio int) Rect {
	return Rect{
		I0: floorDiv(r.I0, ratio), J0: floorDiv(r.J0, ratio),
		I1: ceilDiv(r.I1, ratio), J1: ceilDiv(r.J1, ratio),
	}
}

// Contains reports whether o lies entirely inside r.
func (r Rect) Contains(o Rect) bool {
	return o.I0 >= r.I0 && o.J0 >= r.J0 && o.I1 <= r.I1 && o.J1 <= r.J1
}

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.I0, r.I1, r.J0, r.J1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv is integer division rounding toward positive infinity.
func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
