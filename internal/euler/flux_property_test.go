package euler

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKFVSSupersonicUpwinding(t *testing.T) {
	// For strongly supersonic right-moving flow, F⁻ vanishes and F⁺ is the
	// full physical flux: the split becomes pure upwinding.
	w := Prim{Rho: 1, U: 10, V: 0, P: 1, Y: 0} // Mach ~8.5
	plus := kfvsSplit(w, +1)
	minus := kfvsSplit(w, -1)
	exact := PhysFlux(w)
	for v := 0; v < NVars; v++ {
		if math.Abs(minus[v]) > 1e-8*(1+math.Abs(exact[v])) {
			t.Errorf("supersonic F- component %d = %g, want ~0", v, minus[v])
		}
		if !almostEq(plus[v], exact[v], 1e-8) {
			t.Errorf("supersonic F+ component %d = %g, want %g", v, plus[v], exact[v])
		}
	}
}

func TestKFVSMassFluxSign(t *testing.T) {
	// F⁺ mass flux is nonnegative and F⁻ nonpositive for any state: they
	// are half-range Maxwellian moments.
	states := []Prim{
		{Rho: 1, U: 0, V: 0, P: 1},
		{Rho: 2, U: -3, V: 1, P: 0.5},
		{Rho: 0.1, U: 5, V: -2, P: 4},
	}
	for _, w := range states {
		if kfvsSplit(w, +1)[IRho] < 0 {
			t.Errorf("F+ mass flux negative for %+v", w)
		}
		if kfvsSplit(w, -1)[IRho] > 0 {
			t.Errorf("F- mass flux positive for %+v", w)
		}
	}
}

func TestRiemannSonicRarefactionSampled(t *testing.T) {
	// A strong left rarefaction whose fan straddles x/t = 0 must sample
	// smoothly inside the fan (no jump): the sampled state's u - c ~ 0.
	l := Prim{Rho: 1, U: 0.2, V: 0, P: 1, Y: 0}
	r := Prim{Rho: 0.01, U: 2.5, V: 0, P: 0.01, Y: 0}
	w, iters := RiemannSample(l, r)
	if iters <= 0 {
		t.Fatal("no iterations recorded")
	}
	if w.Rho <= 0 || w.P <= 0 {
		t.Fatalf("non-physical sampled state %+v", w)
	}
	g := 0.5 * (l.Gamma() + r.Gamma())
	c := math.Sqrt(g * w.P / w.Rho)
	if math.Abs(w.U-c) > 0.05*c {
		t.Errorf("sonic-point sample u=%g c=%g; |u-c| should be ~0 inside the fan", w.U, c)
	}
}

// Property: the star pressure is positive and the Newton iteration stays
// within its budget for random physical inputs.
func TestPropertyRiemannStarWellBehaved(t *testing.T) {
	f := func(rl, ul, pl, rr, ur, pr float64) bool {
		l := Prim{
			Rho: 0.05 + math.Abs(math.Mod(rl, 10)),
			U:   math.Mod(ul, 4),
			P:   0.05 + math.Abs(math.Mod(pl, 10)),
		}
		r := Prim{
			Rho: 0.05 + math.Abs(math.Mod(rr, 10)),
			U:   math.Mod(ur, 4),
			P:   0.05 + math.Abs(math.Mod(pr, 10)),
		}
		pstar, _, iters := RiemannStar(l, r)
		return pstar > 0 && iters >= 1 && iters <= riemannMaxIter &&
			!math.IsNaN(pstar) && !math.IsInf(pstar, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the star velocity lies between uL - aL-ish and uR + aR-ish
// bounds (monotonicity of the pressure function), loosely checked.
func TestPropertyRiemannStarVelocityBounded(t *testing.T) {
	f := func(pl, pr float64) bool {
		l := Prim{Rho: 1, U: 0, P: 0.1 + math.Abs(math.Mod(pl, 10))}
		r := Prim{Rho: 1, U: 0, P: 0.1 + math.Abs(math.Mod(pr, 10))}
		_, ustar, _ := RiemannStar(l, r)
		// With equal densities and zero velocities, the contact moves
		// toward the lower-pressure side.
		switch {
		case l.P > r.P:
			return ustar > -1e-12
		case l.P < r.P:
			return ustar < 1e-12
		default:
			return math.Abs(ustar) < 1e-9
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGodunovIterationCountGrowsNearShocks(t *testing.T) {
	// Newton iterations on smooth (identical-state) faces converge faster
	// than on strong-jump faces — the mechanism behind GodunovFlux's
	// growing variance (Fig. 7).
	smoothL := Prim{Rho: 1, U: 0.1, P: 1}
	_, itSmooth := RiemannSample(smoothL, smoothL)
	jumpL := Prim{Rho: 1, U: 2, P: 10}
	jumpR := Prim{Rho: 0.1, U: -2, P: 0.05}
	_, itJump := RiemannSample(jumpL, jumpR)
	if itJump <= itSmooth {
		t.Errorf("strong jump iterations (%d) should exceed smooth (%d)", itJump, itSmooth)
	}
}

func TestEFMFluxMatchesGodunovOnUniformFlow(t *testing.T) {
	// On a uniform field both kernels must return the exact physical flux.
	p := testProc()
	w := Prim{Rho: 1.7, U: 0.6, V: -0.2, P: 2.2, Y: 0.4}
	b := NewBlock(p, 8, 4, 2)
	for j := -2; j < 6; j++ {
		for i := -2; i < 10; i++ {
			b.SetPrim(i, j, w)
		}
	}
	qL := NewEdgeField(p, 8, 4, X)
	qR := NewEdgeField(p, 8, 4, X)
	States(p, b, X, qL, qR)
	fe := NewEdgeField(p, 8, 4, X)
	EFMFlux(p, qL, qR, fe)
	fg := NewEdgeField(p, 8, 4, X)
	GodunovFlux(p, qL, qR, fg)
	exact := PhysFlux(w)
	for v := 0; v < NVars; v++ {
		k := fe.FaceIdx(3, 1)
		if !almostEq(fe.Q[v][k], exact[v], 1e-6) {
			t.Errorf("EFM var %d = %g, want %g", v, fe.Q[v][k], exact[v])
		}
		if !almostEq(fg.Q[v][k], exact[v], 1e-6) {
			t.Errorf("Godunov var %d = %g, want %g", v, fg.Q[v][k], exact[v])
		}
	}
}
