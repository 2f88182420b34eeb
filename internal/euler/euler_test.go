package euler

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMixGammaEndpoints(t *testing.T) {
	if g := MixGamma(0); g != GammaAir {
		t.Errorf("MixGamma(0) = %g, want air %g", g, GammaAir)
	}
	if g := MixGamma(1); g != GammaFreon {
		t.Errorf("MixGamma(1) = %g, want Freon %g", g, GammaFreon)
	}
	if g := MixGamma(-0.5); g != GammaAir {
		t.Errorf("MixGamma clamps below: got %g", g)
	}
	if g := MixGamma(2); g != GammaFreon {
		t.Errorf("MixGamma clamps above: got %g", g)
	}
	mid := MixGamma(0.5)
	if mid <= GammaFreon || mid >= GammaAir {
		t.Errorf("MixGamma(0.5) = %g, want strictly between %g and %g", mid, GammaFreon, GammaAir)
	}
}

func TestPrimConsRoundTrip(t *testing.T) {
	states := []Prim{
		{Rho: 1, U: 0, V: 0, P: 1, Y: 0},
		{Rho: 3, U: 0.8, V: -0.2, P: 2.45, Y: 1},
		{Rho: 0.125, U: 0, V: 0, P: 0.1, Y: 0.5},
		{Rho: 5.5, U: -2, V: 3, P: 10, Y: 0.25},
	}
	for _, w := range states {
		got := PrimFromCons(ConsFromPrim(w))
		if !almostEq(got.Rho, w.Rho, 1e-12) || !almostEq(got.U, w.U, 1e-12) ||
			!almostEq(got.V, w.V, 1e-12) || !almostEq(got.P, w.P, 1e-12) ||
			!almostEq(got.Y, w.Y, 1e-12) {
			t.Errorf("round trip %+v -> %+v", w, got)
		}
	}
}

// Property: prim->cons->prim is the identity for physical states.
func TestPropertyPrimConsRoundTrip(t *testing.T) {
	f := func(rho, u, v, p, y float64) bool {
		w := Prim{
			Rho: 0.01 + math.Abs(math.Mod(rho, 100)),
			U:   math.Mod(u, 10),
			V:   math.Mod(v, 10),
			P:   0.01 + math.Abs(math.Mod(p, 100)),
			Y:   math.Abs(math.Mod(y, 1)),
		}
		got := PrimFromCons(ConsFromPrim(w))
		return almostEq(got.Rho, w.Rho, 1e-10) && almostEq(got.P, w.P, 1e-10) &&
			almostEq(got.U, w.U, 1e-10) && almostEq(got.Y, w.Y, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrimFromConsFloorsVacuum(t *testing.T) {
	w := PrimFromCons(Cons{0, 0, 0, 0, 0})
	if w.Rho <= 0 || w.P <= 0 {
		t.Errorf("vacuum state not floored: %+v", w)
	}
	if math.IsNaN(w.U) {
		t.Error("vacuum produced NaN velocity")
	}
}

func TestRotateRoundTrip(t *testing.T) {
	u := Cons{1, 2, 3, 4, 5}
	if got := unrotate(rotate(u, Y), Y); got != u {
		t.Errorf("rotate/unrotate Y = %v", got)
	}
	if got := rotate(u, X); got != u {
		t.Errorf("rotate X should be identity, got %v", got)
	}
	r := rotate(u, Y)
	if r[IMx] != 3 || r[IMy] != 2 {
		t.Errorf("rotate Y swapped wrong: %v", r)
	}
}

func TestPostShockAirRankineHugoniot(t *testing.T) {
	w := PostShockAir(1.5)
	// Canonical M=1.5 air values.
	if !almostEq(w.P, 2.4583333, 1e-6) {
		t.Errorf("post-shock pressure = %g, want 2.45833", w.P)
	}
	if !almostEq(w.Rho, 1.8620690, 1e-6) {
		t.Errorf("post-shock density = %g, want 1.86207", w.Rho)
	}
	if w.U <= 0 {
		t.Errorf("post-shock velocity %g must push toward the interface", w.U)
	}
	// RH mass flux consistency in the shock frame.
	ws := 1.5 * math.Sqrt(GammaAir) // shock speed into quiescent air
	m1 := 1.0 * ws
	m2 := w.Rho * (ws - w.U)
	if !almostEq(m1, m2, 1e-9) {
		t.Errorf("mass flux mismatch across shock: %g vs %g", m1, m2)
	}
}

func TestKFVSConsistency(t *testing.T) {
	// F+(w) + F-(w) must equal the exact physical flux for any state.
	states := []Prim{
		{Rho: 1, U: 0, V: 0, P: 1, Y: 0},
		{Rho: 1.86, U: 0.82, V: 0.1, P: 2.46, Y: 0},
		{Rho: 3, U: -1.5, V: 0.7, P: 0.9, Y: 1},
		{Rho: 0.2, U: 4, V: 0, P: 0.3, Y: 0.4},
	}
	for _, w := range states {
		plus := kfvsSplit(w, +1)
		minus := kfvsSplit(w, -1)
		exact := PhysFlux(w)
		for v := 0; v < NVars; v++ {
			if !almostEq(plus[v]+minus[v], exact[v], 1e-10) {
				t.Errorf("state %+v var %d: split %g+%g != exact %g",
					w, v, plus[v], minus[v], exact[v])
			}
		}
	}
}

// Property: KFVS split consistency over random physical states.
func TestPropertyKFVSConsistency(t *testing.T) {
	f := func(rho, u, p, y float64) bool {
		w := Prim{
			Rho: 0.05 + math.Abs(math.Mod(rho, 20)),
			U:   math.Mod(u, 5),
			V:   0.3,
			P:   0.05 + math.Abs(math.Mod(p, 20)),
			Y:   math.Abs(math.Mod(y, 1)),
		}
		plus := kfvsSplit(w, +1)
		minus := kfvsSplit(w, -1)
		exact := PhysFlux(w)
		for v := 0; v < NVars; v++ {
			if !almostEq(plus[v]+minus[v], exact[v], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRiemannSodProblem(t *testing.T) {
	// Sod's shock tube with gamma=1.4 on both sides (Y=0): the star values
	// are tabulated in Toro: p* = 0.30313, u* = 0.92745.
	l := Prim{Rho: 1, U: 0, V: 0, P: 1, Y: 0}
	r := Prim{Rho: 0.125, U: 0, V: 0, P: 0.1, Y: 0}
	pstar, ustar, iters := RiemannStar(l, r)
	if !almostEq(pstar, 0.30313, 2e-4) {
		t.Errorf("Sod p* = %g, want 0.30313", pstar)
	}
	if !almostEq(ustar, 0.92745, 2e-4) {
		t.Errorf("Sod u* = %g, want 0.92745", ustar)
	}
	if iters < 2 || iters > riemannMaxIter {
		t.Errorf("Sod Newton iterations = %d, implausible", iters)
	}
}

func TestRiemannTwoShock(t *testing.T) {
	// Colliding streams produce two shocks: p* greater than both inputs.
	l := Prim{Rho: 1, U: 2, V: 0, P: 1, Y: 0}
	r := Prim{Rho: 1, U: -2, V: 0, P: 1, Y: 0}
	pstar, ustar, _ := RiemannStar(l, r)
	if pstar <= 1 {
		t.Errorf("two-shock p* = %g, want > 1", pstar)
	}
	if !almostEq(ustar, 0, 1e-9) {
		t.Errorf("symmetric collision u* = %g, want 0", ustar)
	}
}

func TestRiemannTwoRarefaction(t *testing.T) {
	// Receding streams produce two rarefactions: p* below both inputs.
	l := Prim{Rho: 1, U: -0.5, V: 0, P: 1, Y: 0}
	r := Prim{Rho: 1, U: 0.5, V: 0, P: 1, Y: 0}
	pstar, ustar, _ := RiemannStar(l, r)
	if pstar >= 1 {
		t.Errorf("two-rarefaction p* = %g, want < 1", pstar)
	}
	if !almostEq(ustar, 0, 1e-9) {
		t.Errorf("symmetric expansion u* = %g, want 0", ustar)
	}
}

func TestRiemannIdenticalStates(t *testing.T) {
	w := Prim{Rho: 2, U: 0.3, V: 0.1, P: 1.7, Y: 0.5}
	pstar, ustar, _ := RiemannStar(w, w)
	if !almostEq(pstar, w.P, 1e-7) || !almostEq(ustar, w.U, 1e-7) {
		t.Errorf("identical states: p*=%g u*=%g, want %g/%g", pstar, ustar, w.P, w.U)
	}
	sampled, _ := RiemannSample(w, w)
	if !almostEq(sampled.Rho, w.Rho, 1e-6) || !almostEq(sampled.P, w.P, 1e-6) {
		t.Errorf("sampling identical states returned %+v", sampled)
	}
}

func TestRiemannSampleUpwindsPassives(t *testing.T) {
	l := Prim{Rho: 1, U: 1, V: 0.7, P: 1, Y: 0.9} // flow moving right
	r := Prim{Rho: 1, U: 1, V: -0.3, P: 1, Y: 0.1}
	w, _ := RiemannSample(l, r)
	if w.V != l.V || w.Y != l.Y {
		t.Errorf("right-moving contact should carry left passives, got V=%g Y=%g", w.V, w.Y)
	}
	l2 := Prim{Rho: 1, U: -1, V: 0.7, P: 1, Y: 0.9}
	r2 := Prim{Rho: 1, U: -1, V: -0.3, P: 1, Y: 0.1}
	w2, _ := RiemannSample(l2, r2)
	if w2.V != r2.V || w2.Y != r2.Y {
		t.Errorf("left-moving contact should carry right passives, got V=%g Y=%g", w2.V, w2.Y)
	}
}

// Property: the Godunov interface flux between identical states equals the
// physical flux (consistency), for random physical states.
func TestPropertyGodunovConsistency(t *testing.T) {
	f := func(rho, u, p float64) bool {
		w := Prim{
			Rho: 0.05 + math.Abs(math.Mod(rho, 20)),
			U:   math.Mod(u, 3),
			V:   0.1,
			P:   0.05 + math.Abs(math.Mod(p, 20)),
			Y:   0,
		}
		s, _ := RiemannSample(w, w)
		got := PhysFlux(s)
		want := PhysFlux(w)
		for v := 0; v < NVars; v++ {
			if !almostEq(got[v], want[v], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMinmod(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1, 2, 1}, {2, 1, 1}, {-1, -3, -1}, {-3, -1, -1},
		{1, -1, 0}, {-1, 1, 0}, {0, 5, 0}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := minmod(c.a, c.b); got != c.want {
			t.Errorf("minmod(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestBlockIndexingAndAccessors(t *testing.T) {
	b := NewBlock(testProc(), 4, 3, 2)
	if b.Stride != 8 || b.Cells() != 12 {
		t.Fatalf("block geometry stride=%d cells=%d", b.Stride, b.Cells())
	}
	w := Prim{Rho: 2, U: 1, V: -1, P: 3, Y: 0.5}
	b.SetPrim(-2, -2, w) // corner ghost
	b.SetPrim(3, 2, w)   // last interior
	got := b.PrimAt(3, 2)
	if !almostEq(got.Rho, 2, 1e-12) || !almostEq(got.P, 3, 1e-12) {
		t.Errorf("PrimAt round trip: %+v", got)
	}
}

func TestBlockInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlock(0,..) did not panic")
		}
	}()
	NewBlock(testProc(), 0, 3, 2)
}

func TestCopyFromAndClone(t *testing.T) {
	p := testProc()
	a := NewBlock(p, 3, 3, 2)
	a.SetPrim(1, 1, Prim{Rho: 9, U: 0, V: 0, P: 9, Y: 0})
	b := NewBlock(p, 3, 3, 2)
	b.CopyFrom(a)
	if got := b.PrimAt(1, 1); !almostEq(got.Rho, 9, 1e-12) {
		t.Errorf("clone content %+v", got)
	}
	c := NewBlock(p, 4, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched geometry did not panic")
		}
	}()
	c.CopyFrom(a)
}

func TestFillBoundaryReflection(t *testing.T) {
	b := NewBlock(testProc(), 4, 4, 2)
	pr := DefaultShockInterface()
	pr.InitBlock(b, 0, 0, pr.Lx/4, pr.Ly/4)
	// Inject vertical momentum near the bottom wall.
	u := b.At(1, 0)
	u[IMy] = 0.5
	b.Set(1, 0, u)
	b.FillBoundary(true, true, true, true)
	g := b.At(1, -1)
	if g[IMy] != -0.5 {
		t.Errorf("bottom wall ghost IMy = %g, want -0.5 (reflection)", g[IMy])
	}
	if g[IRho] != u[IRho] {
		t.Errorf("bottom wall ghost density %g, want %g", g[IRho], u[IRho])
	}
	// Transmissive sides copy the edge cell.
	edge := b.At(0, 2)
	ghost := b.At(-2, 2)
	if ghost != edge {
		t.Errorf("left ghost %v != edge %v", ghost, edge)
	}
}

func TestStatesReconstructionConstantField(t *testing.T) {
	// A constant field must reconstruct to exactly itself on every face.
	p := testProc()
	b := NewBlock(p, 8, 6, 2)
	w := Prim{Rho: 1.5, U: 0.2, V: -0.1, P: 2, Y: 0.3}
	for j := -2; j < b.Ny+2; j++ {
		for i := -2; i < b.Nx+2; i++ {
			b.SetPrim(i, j, w)
		}
	}
	for _, dir := range []Dir{X, Y} {
		qL := NewEdgeField(p, b.Nx, b.Ny, dir)
		qR := NewEdgeField(p, b.Nx, b.Ny, dir)
		States(p, b, dir, qL, qR)
		want := ConsFromPrim(w)
		for k := 0; k < qL.Len(); k++ {
			for v := 0; v < NVars; v++ {
				if !almostEq(qL.Q[v][k], want[v], 1e-12) || !almostEq(qR.Q[v][k], want[v], 1e-12) {
					t.Fatalf("dir %v face %d var %d: qL=%g qR=%g want %g",
						dir, k, v, qL.Q[v][k], qR.Q[v][k], want[v])
				}
			}
		}
	}
}

func TestStatesLinearFieldExactInX(t *testing.T) {
	// Minmod reproduces linear data exactly away from extrema: face states
	// from both sides must agree on a linear profile.
	p := testProc()
	b := NewBlock(p, 8, 4, 2)
	for j := -2; j < b.Ny+2; j++ {
		for i := -2; i < b.Nx+2; i++ {
			val := 2 + 0.1*float64(i)
			b.Set(i, j, Cons{val, 0, 0, 10 + val, 0})
		}
	}
	qL := NewEdgeField(p, b.Nx, b.Ny, X)
	qR := NewEdgeField(p, b.Nx, b.Ny, X)
	States(p, b, X, qL, qR)
	for j := 0; j < b.Ny; j++ {
		for f := 0; f <= b.Nx; f++ {
			k := qL.FaceIdx(f, j)
			want := 2 + 0.1*(float64(f)-0.5)
			if !almostEq(qL.Q[IRho][k], want, 1e-12) {
				t.Fatalf("face %d qL rho = %g, want %g", f, qL.Q[IRho][k], want)
			}
			if !almostEq(qL.Q[IRho][k], qR.Q[IRho][k], 1e-12) {
				t.Fatalf("face %d: linear data should give qL == qR", f)
			}
		}
	}
}

// Property: minmod reconstruction never creates values outside the range of
// the two adjacent cells (a TVD-type bound).
func TestPropertyStatesBounded(t *testing.T) {
	p := testProc()
	f := func(vals []float64) bool {
		if len(vals) < 4 {
			return true
		}
		b := NewBlock(p, 6, 1, 2)
		for i := -2; i < 8; i++ {
			v := vals[(i+2)%len(vals)]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 1000)
			b.Set(i, 0, Cons{v, 0, 0, 1, 0})
		}
		qL := NewEdgeField(p, 6, 1, X)
		qR := NewEdgeField(p, 6, 1, X)
		States(p, b, X, qL, qR)
		for fc := 0; fc <= 6; fc++ {
			k := qL.FaceIdx(fc, 0)
			lo := math.Min(b.At(fc-1, 0)[IRho], b.At(fc, 0)[IRho])
			hi := math.Max(b.At(fc-1, 0)[IRho], b.At(fc, 0)[IRho])
			if qL.Q[IRho][k] < lo-1e-9 || qL.Q[IRho][k] > hi+1e-9 {
				return false
			}
			if qR.Q[IRho][k] < lo-1e-9 || qR.Q[IRho][k] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStatesNeedsGhostsPanics(t *testing.T) {
	p := testProc()
	b := NewBlock(p, 4, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("States with 1 ghost layer did not panic")
		}
	}()
	States(p, b, X, NewEdgeField(p, 4, 4, X), NewEdgeField(p, 4, 4, X))
}

func TestEdgeFieldLayoutStrides(t *testing.T) {
	p := testProc()
	ex := NewEdgeField(p, 4, 3, X)
	if ex.Len() != 15 {
		t.Errorf("X faces = %d, want (4+1)*3", ex.Len())
	}
	if ex.FaceIdx(1, 0)-ex.FaceIdx(0, 0) != 1 {
		t.Error("X faces must be contiguous along the sweep")
	}
	ey := NewEdgeField(p, 4, 3, Y)
	if ey.Len() != 16 {
		t.Errorf("Y faces = %d, want 4*(3+1)", ey.Len())
	}
	if ey.FaceIdx(1, 0)-ey.FaceIdx(0, 0) != 4 {
		t.Error("Y faces must stride one row per step along the sweep")
	}
}

// TestFluxKernelsAllocateNothing: a warm flux call allocates nothing on the
// host, in either direction — the per-column iteration counts faceFluxes
// keeps live on the flux field, not in a slice per call.
func TestFluxKernelsAllocateNothing(t *testing.T) {
	proc := testProc()
	const nx, ny = 24, 10
	b := NewBlock(proc, nx, ny, 2)
	pr := DefaultShockInterface()
	pr.InitBlock(b, 0, 0, pr.Lx/nx, pr.Ly/ny)
	b.FillBoundary(true, true, true, true)
	for _, dir := range []Dir{X, Y} {
		qL, qR := NewEdgeField(proc, nx, ny, dir), NewEdgeField(proc, nx, ny, dir)
		flux := NewEdgeField(proc, nx, ny, dir)
		States(proc, b, dir, qL, qR)
		for _, k := range []struct {
			name string
			call func()
		}{
			{"GodunovFlux", func() { GodunovFlux(proc, qL, qR, flux) }},
			{"EFMFlux", func() { EFMFlux(proc, qL, qR, flux) }},
		} {
			k.call()
			if n := testing.AllocsPerRun(20, k.call); n != 0 {
				t.Errorf("%s %v: a warm call allocates %v times", k.name, dir, n)
			}
		}
	}
}
