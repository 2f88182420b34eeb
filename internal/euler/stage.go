package euler

import (
	"math"

	"repro/internal/platform"
)

// applyFlops is the per-cell floating-point work of a flux-divergence
// update over all variables.
const applyFlops = 4 * NVars

// ApplyFluxes writes out = in - dt/dx (Fx_{i+1}-Fx_i) - dt/dy (Fy_{j+1}-Fy_j)
// over the interior. in and out may be the same block. This is the RK2
// component's own (exclusive) work between its calls to States and the flux
// components.
func ApplyFluxes(proc *platform.Proc, in, out *Block, fx, fy *EdgeField, dt, dx, dy float64) {
	if fx.Dir != X || fy.Dir != Y {
		panic("euler: ApplyFluxes wants an X and a Y edge field")
	}
	if fx.NxCells != in.Nx || fx.NyCells != in.Ny || fy.NxCells != in.Nx || fy.NyCells != in.Ny {
		panic("euler: ApplyFluxes geometry mismatch")
	}
	lx := dt / dx
	ly := dt / dy
	nx := in.Nx
	for j := 0; j < in.Ny; j++ {
		// One row of every plane, then the row's states checked cell by
		// cell: the order a non-finite state is reported in is row-major,
		// as the cells are.
		for v := 0; v < NVars; v++ {
			u, o := in.row(v, j), out.row(v, j)
			fxj := fx.Q[v][j*(nx+1):][:nx+1]
			fym, fyp := fy.Q[v][j*nx:][:nx], fy.Q[v][(j+1)*nx:][:nx]
			for i := range o {
				o[i] = u[i] - (lx*(fxj[i+1]-fxj[i]) + ly*(fyp[i]-fym[i]))
			}
		}
		for i := 0; i < nx; i++ {
			validState(out.At(i, j), "ApplyFluxes")
		}
	}
	for v := 0; v < NVars; v++ {
		in.chargeSweep(proc, v, X)
		out.chargeSweep(proc, v, X)
		fx.chargeSweep(proc, v)
		fy.chargeSweep(proc, v)
	}
	proc.ChargeFlops(applyFlops * in.Cells())
}

// Average writes out = (a + b) / 2 over the interior: the combination step
// of Heun's RK2.
func Average(proc *platform.Proc, a, b, out *Block) {
	if a.Nx != b.Nx || a.Ny != b.Ny || a.Nx != out.Nx || a.Ny != out.Ny {
		panic("euler: Average geometry mismatch")
	}
	for j := 0; j < a.Ny; j++ {
		for v := 0; v < NVars; v++ {
			ra, rb, ro := a.row(v, j), b.row(v, j), out.row(v, j)
			for i := range ro {
				ro[i] = 0.5 * (ra[i] + rb[i])
			}
		}
	}
	for v := 0; v < NVars; v++ {
		a.chargeSweep(proc, v, X)
		b.chargeSweep(proc, v, X)
		out.chargeSweep(proc, v, X)
	}
	proc.ChargeFlops(2 * NVars * a.Cells())
}

// CFLTimeStep returns the stable time step for the given mesh spacing and
// global maximum wave speed under the given CFL number.
func CFLTimeStep(cfl, dx, dy, maxSpeed float64) float64 {
	if maxSpeed <= 0 {
		return math.Inf(1)
	}
	h := dx
	if dy < h {
		h = dy
	}
	return cfl * h / maxSpeed
}
