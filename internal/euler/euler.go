// Package euler implements the gas-dynamics kernels of the paper's case
// study: the compressible Euler equations for two gases (Air and Freon,
// mixed through an effective-gamma model), solved with MUSCL reconstruction
// ("States"), a kinetic Equilibrium Flux Method flux ("EFMFlux"), an exact
// Riemann-solver flux ("GodunovFlux"), and a two-stage Runge-Kutta update
// ("RK2"). These are the numerical bodies of the CCA components measured in
// the paper's Section 5.
//
// Every kernel does its real floating-point work on real Go slices and
// charges that work (FLOPs and memory-access streams) to the rank's platform
// processor, so TAU observes virtual times with the paper's cache-driven
// sequential/strided behaviour. There is no uncharged way to run a kernel:
// every block and edge field is built on a processor, and every plane has a
// virtual address on its heap.
//
// The kernels avoid redoing host work whose result they already hold, under
// one rule: no output float, iteration count or charged operation may move.
// The shock-interface fields are piecewise constant over most of a patch, so
// both flux kernels (through one driver, faceFluxes) give a face whose two
// states repeat those of the face one row up in memory that face's flux, and
// GodunovFlux its Newton iteration count, instead of evaluating it again;
// runs of such faces are found and copied a row of one plane at a time.
// "Repeat" is decided on bit patterns (math.Float64bits), never on ==: -0
// equals +0 yet divides and upwinds differently, and a NaN equals nothing,
// not even the NaN that would have reproduced its result; comparing bits
// makes "same input" mean what a pure function needs it to mean, so a
// repeated face gets exactly the floats a recomputation would. The simulated
// cost is charged per face, repeated or not, in the order the simulated
// kernel walks the faces — the memo makes the simulator cheaper to run, not
// the simulated kernel. The implementations this replaced (one Block.At
// stencil per face, no memo, no values shared inside the Riemann solver) are
// kept in reference_test.go, and identity_test.go holds the production
// kernels to them bit for bit; they live in test files so that nothing can
// select them at run time.
//
// The same line runs through memory. A plane's virtual address is part of
// the simulated machine: platform.Proc.Alloc hands one out per plane, the
// heap is append-only, and the cache model sees nothing else, so the
// sequence of Alloc calls — how many, in what order, of what size — is
// fixed by what the simulated code allocates. The host memory behind a
// plane is not part of it. Persistent data (AMR patches) gets its own
// zeroed storage from NewBlock; temporaries (a sweep's block and fields per
// shape, RK2's stage copies and fluxes, InviscidFlux's face states) are
// built on a per-rank Scratch, which recycles one slab without clearing it,
// and the Block and EdgeField headers over it: same addresses, same hits,
// misses and clocks, no allocation and no memclr per temporary.
package euler

import (
	"fmt"
	"math"
)

// Conserved variable indices.
const (
	IRho  = 0 // density
	IMx   = 1 // x-momentum
	IMy   = 2 // y-momentum
	IEner = 3 // total energy density
	IRhoY = 4 // partial density of the heavy gas (rho * mass fraction)
	// NVars is the number of conserved fields.
	NVars = 5
)

// Dir selects the sweep direction of a kernel: X sweeps are sequential in
// memory (row-major layout), Y sweeps are strided — the two operating modes
// the paper's Figures 4 and 5 compare.
type Dir int

// Sweep directions.
const (
	X Dir = iota
	Y
)

// String returns "X" or "Y".
func (d Dir) String() string {
	if d == X {
		return "X"
	}
	return "Y"
}

// Gas gamma constants: air and Freon-22 (the Samtaney–Zabusky pairing the
// paper simulates).
const (
	GammaAir   = 1.4
	GammaFreon = 1.172
)

// MixGamma returns the effective ratio of specific heats for a mixture with
// heavy-gas mass fraction y, from mass-fraction-weighted internal-energy
// partition (the standard gamma model for multi-species Euler).
func MixGamma(y float64) float64 {
	if y <= 0 {
		return GammaAir
	}
	if y >= 1 {
		return GammaFreon
	}
	return 1 + 1/(y/(GammaFreon-1)+(1-y)/(GammaAir-1))
}

// Prim holds primitive variables at a point.
type Prim struct {
	Rho float64 // density
	U   float64 // x-velocity
	V   float64 // y-velocity
	P   float64 // pressure
	Y   float64 // heavy-gas mass fraction
}

// Gamma returns the effective gamma of the mixture at this state.
func (p Prim) Gamma() float64 { return MixGamma(p.Y) }

// SoundSpeed returns the local speed of sound.
func (p Prim) SoundSpeed() float64 { return math.Sqrt(p.Gamma() * p.P / p.Rho) }

// Cons holds conserved variables at a point.
type Cons [NVars]float64

// ConsFromPrim converts primitive variables to conserved variables.
func ConsFromPrim(w Prim) Cons {
	e := w.P/(MixGamma(w.Y)-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V)
	return Cons{w.Rho, w.Rho * w.U, w.Rho * w.V, e, w.Rho * w.Y}
}

// PrimFromCons converts conserved variables to primitive variables. It
// clamps vacuum-adjacent states to a small positive floor rather than
// producing NaNs, which is the usual defensive choice in SAMR codes where
// freshly interpolated ghost values may undershoot.
func PrimFromCons(u Cons) Prim {
	rho := u[IRho]
	if rho < 1e-12 {
		rho = 1e-12
	}
	y := u[IRhoY] / rho
	if y < 0 {
		y = 0
	} else if y > 1 {
		y = 1
	}
	vx := u[IMx] / rho
	vy := u[IMy] / rho
	p := (MixGamma(y) - 1) * (u[IEner] - 0.5*rho*(vx*vx+vy*vy))
	if p < 1e-12 {
		p = 1e-12
	}
	return Prim{Rho: rho, U: vx, V: vy, P: p, Y: y}
}

// PhysFlux returns the exact Euler flux of state w along the normal
// direction (normal velocity un = U for X sweeps after rotation).
func PhysFlux(w Prim) Cons {
	g := MixGamma(w.Y)
	e := w.P/(g-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V)
	return Cons{
		w.Rho * w.U,
		w.Rho*w.U*w.U + w.P,
		w.Rho * w.U * w.V,
		w.U * (e + w.P),
		w.Rho * w.U * w.Y,
	}
}

// rotate swaps normal/transverse velocity for Y sweeps so that all flux
// kernels can treat index 1 as the normal momentum.
func rotate(u Cons, d Dir) Cons {
	if d == X {
		return u
	}
	u[IMx], u[IMy] = u[IMy], u[IMx]
	return u
}

// unrotate undoes rotate.
func unrotate(u Cons, d Dir) Cons { return rotate(u, d) }

// validState panics if a state is non-physical beyond repair (NaN); solver
// bugs should fail loudly rather than silently corrupt a simulation.
func validState(u Cons, where string) {
	for v := 0; v < NVars; v++ {
		if math.IsNaN(u[v]) || math.IsInf(u[v], 0) {
			panic(fmt.Sprintf("euler: non-finite state %v at %s", u, where))
		}
	}
}
