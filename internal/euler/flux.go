package euler

import (
	"math"

	"repro/internal/platform"
)

// efmFlopsPerFace approximates the floating-point work of one EFM face:
// two one-sided kinetic flux evaluations, each dominated by an erf and an
// exp (costed as multi-flop library calls, as PAPI would count them).
const efmFlopsPerFace = 150

// godunovBaseFlops and godunovIterFlops cost the exact Riemann solver:
// a fixed setup plus Newton iterations whose count is data-dependent —
// the source of GodunovFlux's growing timing variability (Fig. 7).
const (
	godunovBaseFlops = 160
	godunovIterFlops = 110
)

// checkFaceGeom validates that the three edge fields agree.
func checkFaceGeom(qL, qR, flux *EdgeField) {
	if qL.Dir != qR.Dir || qL.Dir != flux.Dir ||
		qL.NxCells != qR.NxCells || qL.NxCells != flux.NxCells ||
		qL.NyCells != qR.NyCells || qL.NyCells != flux.NyCells {
		panic("euler: flux edge-field geometry mismatch")
	}
}

// rowRepeats returns how many of the n faces from flat index k on repeat,
// in every plane of q, the face one row (row faces) before them, stopping at
// the first that does not. "Repeat" means the same bit patterns, never ==:
// -0 equals +0 yet the kernels tell them apart (through a division or an
// Erf), and a NaN must equal the identical NaN and no other. It scans plane
// by plane, each scan one tight loop over two rows, cut where the shortest
// run so far ends.
func rowRepeats(q *[NVars][]float64, k, row, n int) int {
	for v := range q {
		cur, above := q[v][k:k+n], q[v][k-row:k-row+n]
		for i, x := range cur {
			if math.Float64bits(x) != math.Float64bits(above[i]) {
				n = i
				break
			}
		}
	}
	return n
}

// faceFluxes is the driver of both flux kernels: it stores face(qL, qR), a
// pure function of the two face states, at every face of flux and returns
// the sum of the iteration counts face reports.
//
// The fields are piecewise constant over most of a patch, so a face whose
// two states repeat those of the face one row up in memory takes that face's
// flux and iteration count instead of evaluating face again. No face depends
// on another, so the host is free to walk the planes front to back and to
// look for the repeat where it is cheapest to find, whatever order the
// simulated kernel is charged in (per face, repeated or not): runs of
// repeats are found, and their fluxes copied, a row of one plane at a time,
// and a repeated face builds no state vector.
func faceFluxes(qL, qR, flux *EdgeField, face func(ul, ur Cons) (Cons, int)) int {
	checkFaceGeom(qL, qR, flux)
	row := flux.NxCells // faces per row of the planes
	if flux.Dir == X {
		row++
	}
	// The iteration count of the face last stored in each column: every
	// entry is stored in the first row before any is read.
	if cap(flux.iters) < row {
		flux.iters = make([]int, row)
	}
	iters := flux.iters[:row]
	total := 0
	for k, n := 0, flux.Len(); k < n; {
		i := k % row
		if k >= row {
			run := rowRepeats(&qR.Q, k, row, rowRepeats(&qL.Q, k, row, row-i))
			for v := range flux.Q {
				copy(flux.Q[v][k:k+run], flux.Q[v][k-row:])
			}
			for _, it := range iters[i : i+run] {
				total += it
			}
			if k, i = k+run, i+run; i == row {
				continue
			}
		}
		var out Cons
		out, iters[i] = face(qL.at(k), qR.at(k))
		flux.set(k, out)
		total += iters[i]
		k++
	}
	return total
}

// chargeFluxKernel accounts the memory traffic of a flux kernel: read both
// state fields, write the flux field, interleaved per row/column as the
// kernel walks the faces. overlapped marks kernels whose dense independent
// arithmetic hides strided-miss latency (EFM, per Fig. 8's
// near-mode-independent timings).
func chargeFluxKernel(proc *platform.Proc, qL, qR, flux *EdgeField, overlapped bool) {
	nt, _, _, _ := flux.sweepShape()
	for t := 0; t < nt; t++ {
		for v := 0; v < NVars; v++ {
			qL.chargeLineSegment(proc, v, t, overlapped)
			qR.chargeLineSegment(proc, v, t, overlapped)
			flux.chargeLineSegment(proc, v, t, overlapped)
		}
	}
}

// EFMFlux computes interface fluxes with the Equilibrium Flux Method
// (kinetic flux-vector splitting): F = F⁺(qL) + F⁻(qR). Its per-face cost
// is fixed — heavy on transcendentals, light on memory — which is why the
// paper finds EFMFlux cheaper than GodunovFlux with far smaller variance
// (Fig. 8), making it the better-performing implementation choice.
//
// The charged work is per face; the host evaluates a face whose states
// repeat only once (see faceFluxes).
func EFMFlux(proc *platform.Proc, qL, qR, flux *EdgeField) {
	d := flux.Dir
	faceFluxes(qL, qR, flux, func(ul, ur Cons) (Cons, int) {
		fl, fr := kfvsSplit(primRot(ul, d), +1), kfvsSplit(primRot(ur, d), -1)
		var out Cons
		for v := 0; v < NVars; v++ {
			out[v] = fl[v] + fr[v]
		}
		return unrotate(out, d), 0
	})
	chargeFluxKernel(proc, qL, qR, flux, true)
	proc.ChargeFlops(efmFlopsPerFace * flux.Len())
}

// primRot converts a conserved face state to primitives with the sweep
// direction rotated onto the normal axis.
func primRot(u Cons, d Dir) Prim {
	return PrimFromCons(rotate(u, d))
}

// kfvsSplit returns the one-sided kinetic flux of state w: sign=+1 gives
// the right-moving half-Maxwellian flux F⁺, sign=-1 gives F⁻. The split is
// exactly consistent: F⁺(w)+F⁻(w) equals the physical flux of w.
func kfvsSplit(w Prim, sign float64) Cons {
	g := w.Gamma()
	beta := w.Rho / (2 * w.P)
	s := w.U * math.Sqrt(beta)
	a := 0.5 * (1 + sign*math.Erf(s))
	bterm := sign * 0.5 * math.Exp(-s*s) / math.Sqrt(math.Pi*beta)
	e := w.P/(g-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V)
	massFlux := w.Rho * (w.U*a + bterm)
	return Cons{
		massFlux,
		(w.Rho*w.U*w.U+w.P)*a + w.Rho*w.U*bterm,
		massFlux * w.V,
		w.U*(e+w.P)*a + (e+0.5*w.P)*bterm,
		massFlux * w.Y,
	}
}

// GodunovFlux computes interface fluxes from the exact solution of the
// Riemann problem at each face (iterative Newton solve for the star-region
// pressure). It returns the total number of Newton iterations performed —
// data-dependent work that makes its timing variance grow with array size.
// GodunovFlux is the more accurate, more expensive alternative to EFMFlux:
// the paper's Quality-of-Service discussion (Section 5) weighs exactly this
// substitution.
//
// A face whose states repeat (see faceFluxes) is solved once, and counted and
// charged with the iterations of the face it repeats.
func GodunovFlux(proc *platform.Proc, qL, qR, flux *EdgeField) int {
	d := flux.Dir
	totalIters := faceFluxes(qL, qR, flux, func(ul, ur Cons) (Cons, int) {
		w, iters := RiemannSample(primRot(ul, d), primRot(ur, d))
		return unrotate(PhysFlux(w), d), iters
	})
	chargeFluxKernel(proc, qL, qR, flux, false)
	proc.ChargeFlops(godunovBaseFlops*flux.Len() + godunovIterFlops*totalIters)
	return totalIters
}

// riemannTol is the Newton convergence tolerance on the star pressure.
const riemannTol = 1e-8

// riemannMaxIter bounds the Newton iteration; the two-rarefaction initial
// guess converges in a handful of steps for all physical inputs.
const riemannMaxIter = 25

// pressureFn evaluates Toro's f_K(p) and its derivative for one side with
// sound speed a = sqrt(g*w.P/w.Rho).
func pressureFn(p float64, w Prim, a, g float64) (fk, dfk float64) {
	if p > w.P { // shock
		ak := 2 / ((g + 1) * w.Rho)
		bk := (g - 1) / (g + 1) * w.P
		q := math.Sqrt(ak / (p + bk))
		fk = (p - w.P) * q
		dfk = q * (1 - (p-w.P)/(2*(p+bk)))
		return fk, dfk
	}
	// rarefaction
	pr := p / w.P
	fk = 2 * a / (g - 1) * (math.Pow(pr, (g-1)/(2*g)) - 1)
	dfk = 1 / (w.Rho * a) * math.Pow(pr, -(g+1)/(2*g))
	return fk, dfk
}

// pressureVal is pressureFn without the derivative. On the rarefaction
// branch it also returns pw = (p/w.P)^((g-1)/(2g)), the ratio of star to
// side sound speed, which sampleSide needs again; pw is 0 on the shock
// branch.
func pressureVal(p float64, w Prim, a, g float64) (fk, pw float64) {
	if p > w.P { // shock
		ak := 2 / ((g + 1) * w.Rho)
		bk := (g - 1) / (g + 1) * w.P
		q := math.Sqrt(ak / (p + bk))
		return (p - w.P) * q, 0
	}
	pw = math.Pow(p/w.P, (g-1)/(2*g))
	return 2 * a / (g - 1) * (pw - 1), pw
}

// starState is the star-region solution of one Riemann problem together
// with the per-side values the sampling step would otherwise recompute.
type starState struct {
	p, u   float64
	iters  int
	g      float64 // the single gamma the solve used
	al, ar float64 // side sound speeds at g
	pl, pr float64 // pressureVal's pw for l and r at the converged p
}

// RiemannStar solves for the star-region pressure and velocity between
// states l and r (normal velocity in U), using a Newton iteration on the
// pressure function with a two-rarefaction initial guess. It returns the
// star pressure, star velocity and the number of iterations used.
func RiemannStar(l, r Prim) (pstar, ustar float64, iters int) {
	s := riemannStar(l, r)
	return s.p, s.u, s.iters
}

// riemannStar is RiemannStar keeping its intermediates. The pressure
// function reads only P and Rho of its side (besides p, g), so when the two
// sides agree bit for bit in both, one evaluation serves both.
func riemannStar(l, r Prim) starState {
	g := 0.5 * (l.Gamma() + r.Gamma()) // single-gamma approximation
	al := math.Sqrt(g * l.P / l.Rho)
	ar := math.Sqrt(g * r.P / r.Rho)
	du := r.U - l.U
	twin := math.Float64bits(l.P) == math.Float64bits(r.P) &&
		math.Float64bits(l.Rho) == math.Float64bits(r.Rho)

	// Two-rarefaction initial guess (robust for all pressure ratios).
	z := (g - 1) / (2 * g)
	num := al + ar - 0.5*(g-1)*du
	plz := math.Pow(l.P, z)
	prz := plz
	if !twin {
		prz = math.Pow(r.P, z)
	}
	den := al/plz + ar/prz
	p := math.Pow(num/den, 1/z)
	if p < riemannTol {
		p = riemannTol
	}

	iters := 1
	for ; iters <= riemannMaxIter; iters++ {
		fl, dfl := pressureFn(p, l, al, g)
		fr, dfr := fl, dfl
		if !twin {
			fr, dfr = pressureFn(p, r, ar, g)
		}
		f := fl + fr + du
		df := dfl + dfr
		dp := f / df
		pNew := p - dp
		if pNew < riemannTol {
			pNew = riemannTol
		}
		if math.Abs(pNew-p) < riemannTol*(0.5*(pNew+p)) {
			p = pNew
			break
		}
		p = pNew
	}
	fl, pl := pressureVal(p, l, al, g)
	fr, pr := fl, pl
	if !twin {
		fr, pr = pressureVal(p, r, ar, g)
	}
	ustar := 0.5*(l.U+r.U) + 0.5*(fr-fl)
	return starState{p: p, u: ustar, iters: iters, g: g, al: al, ar: ar, pl: pl, pr: pr}
}

// RiemannSample solves the Riemann problem between l and r and samples the
// self-similar solution on the interface ray x/t = 0, returning the state
// there (with transverse velocity and mass fraction taken from the upwind
// side) and the Newton iteration count.
func RiemannSample(l, r Prim) (Prim, int) {
	s := riemannStar(l, r)

	var w Prim
	if s.u >= 0 {
		w = sampleSide(l, s.p, s.u, s.g, s.al, s.pl, +1)
		w.V, w.Y = l.V, l.Y
	} else {
		w = sampleSide(r, s.p, s.u, s.g, s.ar, s.pr, -1)
		w.V, w.Y = r.V, r.Y
	}
	return w, s.iters
}

// sampleSide samples the wave fan on one side of the contact at x/t = 0.
// side = +1 for the left wave (moving left), -1 for the right wave. a is the
// side's sound speed sqrt(g*k.P/k.Rho) and pw is (pstar/k.P)^((g-1)/(2g)),
// both as riemannStar computed them (pw is read on the rarefaction branch
// only).
func sampleSide(k Prim, pstar, ustar, g, a, pw, side float64) Prim {
	if pstar > k.P {
		// Shock on this side.
		sqrtTerm := math.Sqrt((g+1)/(2*g)*pstar/k.P + (g-1)/(2*g))
		sShock := k.U - side*a*sqrtTerm
		if side*sShock >= 0 {
			return k // ahead of the shock
		}
		rr := pstar / k.P
		gm := (g - 1) / (g + 1)
		rho := k.Rho * (rr + gm) / (gm*rr + 1)
		return Prim{Rho: rho, U: ustar, V: k.V, P: pstar, Y: k.Y}
	}
	// Rarefaction on this side.
	astar := a * pw
	sHead := k.U - side*a
	sTail := ustar - side*astar
	switch {
	case side*sHead >= 0:
		return k // ahead of the head
	case side*sTail <= 0:
		rho := k.Rho * math.Pow(pstar/k.P, 1/g)
		return Prim{Rho: rho, U: ustar, V: k.V, P: pstar, Y: k.Y}
	default:
		// Inside the fan: self-similar state at x/t = 0.
		u := (2 / (g + 1)) * (side*a + (g-1)/2*k.U)
		c := (2 / (g + 1)) * (a + side*(g-1)/2*k.U)
		rho := k.Rho * math.Pow(c/a, 2/(g-1))
		p := k.P * math.Pow(c/a, 2*g/(g-1))
		return Prim{Rho: rho, U: u, V: k.V, P: p, Y: k.Y}
	}
}
