package euler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/platform"
)

// The tests in this file hold the production kernels to the reference
// implementations in reference_test.go: same bits in every output float,
// same Newton iteration counts, same work charged to the simulated machine.

// testProc returns a fresh simulated processor. Every block, edge field and
// kernel in this package's tests runs on one, as in production: there is no
// uncharged way to build or run them.
func testProc() *platform.Proc {
	return platform.NewProc(0, platform.XeonModel(), cache.XeonL2(), 7)
}

// sameWork fails unless two processors were charged identically.
func sameWork(t *testing.T, what string, got, want *platform.Proc) {
	t.Helper()
	if got.Counters() != want.Counters() || got.Now() != want.Now() {
		t.Errorf("%s: charged %+v at t=%v, reference %+v at t=%v",
			what, got.Counters(), got.Now(), want.Counters(), want.Now())
	}
}

// sameField fails unless two edge fields hold the same bit patterns.
func sameField(t *testing.T, what string, got, want *EdgeField) {
	t.Helper()
	for v := 0; v < NVars; v++ {
		for k := range want.Q[v] {
			if g, w := math.Float64bits(got.Q[v][k]), math.Float64bits(want.Q[v][k]); g != w {
				t.Fatalf("%s: plane %d face %d = %v (%#x), reference %v (%#x)",
					what, v, k, got.Q[v][k], g, want.Q[v][k], w)
			}
		}
	}
}

// identityBlocks returns the block fillers of the identity tests: random
// physical states cell by cell, piecewise-constant patches (long runs of
// repeated faces, the memo's hit case, with jumps between them), and the
// sweep's own randomized shock-interface initial condition.
func identityBlocks() map[string]func(b *Block, rng *rand.Rand) {
	randomPrim := func(rng *rand.Rand) Prim {
		return Prim{
			Rho: 0.05 + 5*rng.Float64(),
			U:   4 * (rng.Float64() - 0.5),
			V:   4 * (rng.Float64() - 0.5),
			P:   0.05 + 5*rng.Float64(),
			Y:   math.Max(0, math.Min(1, 1.5*rng.Float64()-0.25)),
		}
	}
	return map[string]func(b *Block, rng *rand.Rand){
		"random": func(b *Block, rng *rand.Rand) {
			for j := -b.Ng; j < b.Ny+b.Ng; j++ {
				for i := -b.Ng; i < b.Nx+b.Ng; i++ {
					b.SetPrim(i, j, randomPrim(rng))
				}
			}
		},
		"piecewise": func(b *Block, rng *rand.Rand) {
			// A 4x3 checkerboard of constant states with ragged edges.
			var states [12]Prim
			for i := range states {
				states[i] = randomPrim(rng)
			}
			for j := -b.Ng; j < b.Ny+b.Ng; j++ {
				for i := -b.Ng; i < b.Nx+b.Ng; i++ {
					ci := (i + b.Ng + j%2) * 4 / (b.Nx + 2*b.Ng + 1)
					cj := (j + b.Ng) * 3 / (b.Ny + 2*b.Ng)
					b.SetPrim(i, j, states[cj*4+ci])
				}
			}
		},
		"shock-interface": func(b *Block, rng *rand.Rand) {
			p := DefaultShockInterface()
			p.ShockX = p.Lx * (0.15 + 0.5*rng.Float64())
			p.InterfaceX = p.ShockX + p.Lx*(0.1+0.3*rng.Float64())
			p.InitBlock(b, 0, 0, p.Lx/float64(b.Nx), p.Ly/float64(b.Ny))
			b.FillBoundary(true, true, true, true)
		},
	}
}

// TestKernelsMatchReference runs States, GodunovFlux and EFMFlux against
// their references in both directions over every filler and a few shapes.
func TestKernelsMatchReference(t *testing.T) {
	shapes := [][2]int{{37, 11}, {8, 40}, {4, 4}, {64, 5}}
	for name, fill := range identityBlocks() {
		for _, shape := range shapes {
			for _, dir := range []Dir{X, Y} {
				nx, ny := shape[0], shape[1]
				t.Run(fmt.Sprintf("%s/%dx%d/%v", name, nx, ny, dir), func(t *testing.T) {
					got, want := testProc(), testProc()
					rng := rand.New(rand.NewSource(int64(nx*1000 + ny)))
					b := NewBlock(got, nx, ny, 2)
					fill(b, rng)
					rb := NewBlock(want, nx, ny, 2)
					rb.CopyFrom(b)

					qL, qR := NewEdgeField(got, nx, ny, dir), NewEdgeField(got, nx, ny, dir)
					rL, rR := NewEdgeField(want, nx, ny, dir), NewEdgeField(want, nx, ny, dir)
					States(got, b, dir, qL, qR)
					refStates(want, rb, dir, rL, rR)
					sameField(t, "States qL", qL, rL)
					sameField(t, "States qR", qR, rR)
					sameWork(t, "States", got, want)

					fl, rfl := NewEdgeField(got, nx, ny, dir), NewEdgeField(want, nx, ny, dir)
					gi, wi := GodunovFlux(got, qL, qR, fl), refGodunovFlux(want, rL, rR, rfl)
					if gi != wi {
						t.Errorf("GodunovFlux iterations = %d, reference %d", gi, wi)
					}
					sameField(t, "GodunovFlux", fl, rfl)
					sameWork(t, "GodunovFlux", got, want)

					EFMFlux(got, qL, qR, fl)
					refEFMFlux(want, rL, rR, rfl)
					sameField(t, "EFMFlux", fl, rfl)
					sameWork(t, "EFMFlux", got, want)
				})
			}
		}
	}
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b *Cons) bool {
	for v := 0; v < NVars; v++ {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return false
		}
	}
	return true
}

// TestSameBits pins the memo's comparison where it differs from ==: a
// one-column Y field holds a on the face above b, and b repeats a only if
// every plane has the same bits.
func TestSameBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	base := Cons{1, 0, 0, 2.5, 0}
	for _, tt := range []struct {
		name string
		a, b Cons
		want bool
	}{
		{"equal", base, base, true},
		{"differs in one plane", base, Cons{1, 0, 0, 2.5, 0.5}, false},
		{"-0 vs +0 normal momentum", base, Cons{1, negZero, 0, 2.5, 0}, false},
		{"-0 vs +0 transverse momentum", base, Cons{1, 0, negZero, 2.5, 0}, false},
		{"same NaN", Cons{1, 0, 0, nanA, 0}, Cons{1, 0, 0, nanA, 0}, true},
		{"two NaNs", Cons{1, 0, 0, nanA, 0}, Cons{1, 0, 0, nanB, 0}, false},
		{"NaN vs number", Cons{1, 0, 0, nanA, 0}, base, false},
	} {
		q := NewEdgeField(testProc(), 1, 1, Y)
		q.set(0, tt.a)
		q.set(1, tt.b)
		if got := rowRepeats(&q.Q, 1, 1, 1) == 1; got != tt.want {
			t.Errorf("%s: repeats = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// lineField builds the three X edge fields of a one-cell-wide patch whose
// rows hold the given (qL, qR) pairs, one pair per row on both faces of the
// row, so that face (f, j) sits right above face (f, j+1): where the memo
// looks for a repeat.
func lineField(faces [][2]Cons) (qL, qR, fl *EdgeField) {
	p := testProc()
	ny := len(faces)
	qL, qR, fl = NewEdgeField(p, 1, ny, X), NewEdgeField(p, 1, ny, X), NewEdgeField(p, 1, ny, X)
	for j, lr := range faces {
		for f := 0; f <= 1; f++ {
			qL.setFace(f, j, lr[0])
			qR.setFace(f, j, lr[1])
		}
	}
	return qL, qR, fl
}

// TestMemoTellsSignedZerosApart puts two faces one above the other that are
// equal under == and differ only in the sign of a zero momentum. The sign
// reaches the flux (the upwinded transverse momentum flux is ±0), so a memo
// keyed on == would hand the second face the first one's flux.
func TestMemoTellsSignedZerosApart(t *testing.T) {
	p := testProc()
	negZero := math.Copysign(0, -1)
	right := ConsFromPrim(Prim{Rho: 1, U: 0.5, V: 0, P: 1, Y: 0})
	left := ConsFromPrim(Prim{Rho: 1.2, U: 0.5, V: 0, P: 1.1, Y: 0})
	leftNeg := left
	leftNeg[IMy] = negZero
	if left != leftNeg {
		t.Fatal("the two face states must be equal under ==")
	}
	faces := [][2]Cons{{left, right}, {leftNeg, right}, {left, right}, {leftNeg, right}, {leftNeg, right}}

	qL, qR, fl := lineField(faces)
	_, _, rfl := lineField(faces)
	if g, w := GodunovFlux(p, qL, qR, fl), refGodunovFlux(p, qL, qR, rfl); g != w {
		t.Errorf("GodunovFlux iterations = %d, reference %d", g, w)
	}
	sameField(t, "GodunovFlux", fl, rfl)
	if a, b := fl.AtFace(0, 0)[IMy], fl.AtFace(0, 1)[IMy]; math.Signbit(a) == math.Signbit(b) {
		t.Errorf("Godunov transverse fluxes %v and %v should differ in sign: the case no longer tells a wrong hit", a, b)
	}

	EFMFlux(p, qL, qR, fl)
	refEFMFlux(p, qL, qR, rfl)
	sameField(t, "EFMFlux", fl, rfl)
	if a, b := fl.AtFace(0, 0)[IMy], fl.AtFace(0, 1)[IMy]; math.Signbit(a) == math.Signbit(b) {
		t.Errorf("EFM transverse fluxes %v and %v should differ in sign: the case no longer tells a wrong hit", a, b)
	}
}

// TestMemoWithNaNFaces runs faces holding NaNs (with distinct payloads, and
// next to finite faces that agree with them in every other plane) through
// both kernels: each face must come out as the reference computes it.
func TestMemoWithNaNFaces(t *testing.T) {
	p := testProc()
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	l := ConsFromPrim(Prim{Rho: 1.2, U: 0.3, V: 0.1, P: 1.1, Y: 0.2})
	r := ConsFromPrim(Prim{Rho: 1, U: 0.1, V: -0.2, P: 1, Y: 0})
	withEner := func(u Cons, e float64) Cons { u[IEner] = e; return u }
	faces := [][2]Cons{
		{l, r}, {withEner(l, nanA), r}, {l, r}, {l, withEner(r, nanA)}, {l, withEner(r, nanB)},
		{withEner(l, nanA), withEner(r, nanB)}, {withEner(l, nanA), withEner(r, nanB)}, {l, r},
	}
	qL, qR, fl := lineField(faces)
	_, _, rfl := lineField(faces)
	if g, w := GodunovFlux(p, qL, qR, fl), refGodunovFlux(p, qL, qR, rfl); g != w {
		t.Errorf("GodunovFlux iterations = %d, reference %d", g, w)
	}
	sameField(t, "GodunovFlux", fl, rfl)
	for _, f := range []int{0, 2, 7} {
		if math.IsNaN(fl.AtFace(0, f)[IEner]) {
			t.Errorf("finite face %d took a NaN neighbour's flux", f)
		}
	}
	if !math.IsNaN(fl.AtFace(0, 3)[IEner]) {
		t.Error("a NaN face took a finite neighbour's flux")
	}
	EFMFlux(p, qL, qR, fl)
	refEFMFlux(p, qL, qR, rfl)
	sameField(t, "EFMFlux", fl, rfl)
}

// TestRiemannSolverMatchesReference compares the solver entry points on the
// wave patterns whose code paths differ: identical sides (one pressure
// function evaluation serves both), sides equal in P and Rho only, two
// shocks, two rarefactions, a sonic rarefaction sampled inside the fan on
// either side, and a mixed-gamma pair, then on random pairs.
func TestRiemannSolverMatchesReference(t *testing.T) {
	cases := map[string][2]Prim{
		"l == r":                  {{Rho: 2, U: 0.3, V: 0.1, P: 1.7, Y: 0.5}, {Rho: 2, U: 0.3, V: 0.1, P: 1.7, Y: 0.5}},
		"twin thermodynamics":     {{Rho: 1, U: 0.4, V: 0.1, P: 1, Y: 0}, {Rho: 1, U: -0.2, V: 0.3, P: 1, Y: 0}},
		"shock/shock":             {{Rho: 1, U: 2, V: 0, P: 1, Y: 0}, {Rho: 1.5, U: -2, V: 0, P: 0.8, Y: 0}},
		"rarefaction/rarefaction": {{Rho: 1, U: -0.5, V: 0, P: 1, Y: 0}, {Rho: 0.9, U: 0.5, V: 0, P: 0.7, Y: 0}},
		"in left fan":             {{Rho: 1, U: 0.75, V: 0.2, P: 1, Y: 0}, {Rho: 0.125, U: 0, V: 0, P: 0.1, Y: 0}},
		"in right fan":            {{Rho: 0.125, U: 0, V: 0, P: 0.1, Y: 0}, {Rho: 1, U: -0.75, V: 0.2, P: 1, Y: 0}},
		"sod":                     {{Rho: 1, U: 0, V: 0, P: 1, Y: 0}, {Rho: 0.125, U: 0, V: 0, P: 0.1, Y: 0}},
		"air/freon":               {{Rho: 1.86, U: 0.7, V: 0, P: 2.46, Y: 0}, {Rho: 3, U: 0, V: 0, P: 1, Y: 1}},
		"near vacuum":             {{Rho: 1, U: -4, V: 0, P: 0.4, Y: 0}, {Rho: 1, U: 4, V: 0, P: 0.4, Y: 0}},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var lr [2]Prim
		for s := range lr {
			lr[s] = Prim{
				Rho: 0.05 + 5*rng.Float64(), U: 6 * (rng.Float64() - 0.5), V: rng.Float64(),
				P: 0.05 + 5*rng.Float64(), Y: float64(rng.Intn(3)) / 2,
			}
		}
		if i%4 == 0 { // exercise the shared evaluation on random data too
			lr[1].P, lr[1].Rho = lr[0].P, lr[0].Rho
		}
		cases[fmt.Sprintf("random %d", i)] = lr
	}
	inFan := 0
	for name, lr := range cases {
		l, r := lr[0], lr[1]
		gp, gu, gi := RiemannStar(l, r)
		wp, wu, wi := refRiemannStar(l, r)
		if math.Float64bits(gp) != math.Float64bits(wp) || math.Float64bits(gu) != math.Float64bits(wu) || gi != wi {
			t.Errorf("%s: RiemannStar = (%v, %v, %d), reference (%v, %v, %d)", name, gp, gu, gi, wp, wu, wi)
		}
		gw, gi := RiemannSample(l, r)
		ww, wi := refRiemannSample(l, r)
		if primBits(gw) != primBits(ww) || gi != wi {
			t.Errorf("%s: RiemannSample = (%+v, %d), reference (%+v, %d)", name, gw, gi, ww, wi)
		}
		if gw.P != l.P && gw.P != r.P && gw.P != gp {
			inFan++ // neither an input state nor the star state: sampled inside a fan
		}
	}
	if inFan < 3 {
		t.Errorf("only %d cases sampled inside a rarefaction fan; the in-fan path is not covered", inFan)
	}
}

// primBits returns the bit patterns of a primitive state, for
// comparing two of them exactly.
func primBits(w Prim) [5]uint64 {
	return [5]uint64{
		math.Float64bits(w.Rho), math.Float64bits(w.U), math.Float64bits(w.V),
		math.Float64bits(w.P), math.Float64bits(w.Y),
	}
}

// TestInitBlockMatchesStateAt holds InitBlock to its definition: every cell,
// ghosts included, is the conserved form of StateAt at the cell centre.
func TestInitBlockMatchesStateAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{48, 12}, {7, 33}, {4, 4}} {
		p := DefaultShockInterface()
		p.ShockX = p.Lx * (0.15 + 0.5*rng.Float64())
		p.InterfaceX = p.ShockX + p.Lx*(0.1+0.3*rng.Float64())
		b := NewBlock(testProc(), shape[0], shape[1], 2)
		x0, y0 := 0.25*rng.Float64(), 0.1*rng.Float64()
		dx, dy := p.Lx/float64(b.Nx), p.Ly/float64(b.Ny)
		p.InitBlock(b, x0, y0, dx, dy)
		for j := -b.Ng; j < b.Ny+b.Ng; j++ {
			for i := -b.Ng; i < b.Nx+b.Ng; i++ {
				want := ConsFromPrim(p.StateAt(x0+(float64(i)+0.5)*dx, y0+(float64(j)+0.5)*dy))
				if got := b.At(i, j); !sameBits(&got, &want) {
					t.Fatalf("%dx%d cell (%d,%d) = %v, want %v", b.Nx, b.Ny, i, j, got, want)
				}
			}
		}
	}
}
