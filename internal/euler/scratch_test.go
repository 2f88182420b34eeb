package euler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scratchShapes is a shape sequence that grows, shrinks and repeats, so that
// recycled planes start inside, across and past the planes of the use before.
var scratchShapes = [][2]int{{12, 9}, {37, 11}, {8, 40}, {5, 4}, {37, 11}, {64, 5}, {4, 4}, {8, 40}}

// shapeFloats is what one shape of the sequence takes from a Scratch: a
// block, a second block, and three edge fields per direction.
func shapeFloats(nx, ny int) int {
	return 2*BlockFloats(nx, ny, 2) + 3*EdgeFieldFloats(nx, ny)
}

// TestScratchKeepsVirtualAddresses is the property that makes recycled host
// storage invisible to the cache model: built through a Scratch or through
// NewBlock/NewEdgeField, every plane gets the same virtual address, and the
// processor's heap cursor ends in the same place. The headers are recycled
// too: after a Reset the Scratch hands out the headers of the use before,
// each rewritten with the new geometry, and no two blocks or fields built
// between two Resets share one.
func TestScratchKeepsVirtualAddresses(t *testing.T) {
	got, want := testProc(), testProc()
	var s Scratch
	var prevBlock *Block
	var prevFields map[*EdgeField]bool
	for n, shape := range scratchShapes {
		nx, ny := shape[0], shape[1]
		s.Reset(shapeFloats(nx, ny))
		b := s.Block(got, nx, ny, 2)
		if n > 0 && b != prevBlock {
			t.Errorf("%dx%d: Reset did not hand the block header out again", nx, ny)
		}
		prevBlock = b
		if b.Nx != nx || b.Ny != ny || b.Ng != 2 || b.Stride != nx+4 || len(b.U[NVars-1]) != (nx+4)*(ny+4) {
			t.Fatalf("%dx%d: recycled block header reads %dx%d ghost %d stride %d", nx, ny, b.Nx, b.Ny, b.Ng, b.Stride)
		}
		if a, f := b.addr, NewBlock(want, nx, ny, 2).addr; a != f {
			t.Fatalf("%dx%d block planes at %#x, fresh ones at %#x", nx, ny, a, f)
		}
		fields := map[*EdgeField]bool{}
		for _, dir := range []Dir{X, Y} {
			for i := 0; i < 3; i++ {
				e := s.EdgeField(got, nx, ny, dir)
				if fields[e] {
					t.Fatalf("%dx%d: two fields built after one Reset share a header", nx, ny)
				}
				if n > 0 && !prevFields[e] {
					t.Errorf("%dx%d: a field header was not handed out again after Reset", nx, ny)
				}
				fields[e] = true
				if e.Dir != dir || e.NxCells != nx || e.NyCells != ny || len(e.Q[NVars-1]) != faceCount(nx, ny, dir) {
					t.Fatalf("%dx%d %v: recycled field header reads %v %dx%d", nx, ny, dir, e.Dir, e.NxCells, e.NyCells)
				}
				if a, f := e.addr, NewEdgeField(want, nx, ny, dir).addr; a != f {
					t.Fatalf("%dx%d %v field planes at %#x, fresh ones at %#x", nx, ny, dir, a, f)
				}
			}
		}
		prevFields = fields
	}
	if g, w := got.Checkpoint().NextAddr, want.Checkpoint().NextAddr; g != w {
		t.Errorf("heap cursor at %#x after the scratch sequence, %#x after the fresh one", g, w)
	}
}

// TestScratchPlanesDoNotOverlap checks what a plane's cut capacity promises:
// appending to one plane, or reslicing it to its capacity, cannot reach the
// next, and taking more than Reset made room for panics.
func TestScratchPlanesDoNotOverlap(t *testing.T) {
	p := testProc()
	var s Scratch
	s.Reset(BlockFloats(3, 2, 1) + EdgeFieldFloats(3, 2))
	b := s.Block(p, 3, 2, 1)
	e := s.EdgeField(p, 3, 2, X)
	s.EdgeField(p, 3, 2, Y)
	for v := 0; v < NVars; v++ {
		if cap(b.U[v]) != len(b.U[v]) || cap(e.Q[v]) != len(e.Q[v]) {
			t.Fatalf("plane %d: capacity beyond length", v)
		}
		for k := range b.U[v] {
			b.U[v][k] = 1
		}
	}
	for v := 0; v < NVars; v++ {
		for k, x := range e.Q[v] {
			if x != 0 {
				t.Fatalf("writing the block reached field plane %d face %d", v, k)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a plane past the reserved room did not panic")
		}
	}()
	s.EdgeField(p, 3, 2, Y)
}

// sameBlock fails unless two blocks hold the same bit patterns, ghosts
// included.
func sameBlock(t *testing.T, what string, got, want *Block) {
	t.Helper()
	for v := 0; v < NVars; v++ {
		for k := range want.U[v] {
			if g, w := math.Float64bits(got.U[v][k]), math.Float64bits(want.U[v][k]); g != w {
				t.Fatalf("%s: plane %d element %d = %#x, on fresh storage %#x", what, v, k, g, w)
			}
		}
	}
}

// TestPoisonedScratchMatchesFreshStorage is the written-before-read
// guarantee, checked: with every Reset filling the slab with signalling
// NaNs, the kernels over recycled storage give, bit for bit and iteration
// for iteration, what they give over fresh zeroed NewBlock/NewEdgeField
// storage, and are charged the same. A kernel that read an element it had
// not written would compute a NaN here.
func TestPoisonedScratchMatchesFreshStorage(t *testing.T) {
	defer PoisonScratchOnReset()()
	got, want := testProc(), testProc()
	fill := identityBlocks()["shock-interface"]
	var s Scratch
	for n, shape := range scratchShapes {
		nx, ny := shape[0], shape[1]
		t.Run(fmt.Sprintf("%d/%dx%d", n, nx, ny), func(t *testing.T) {
			s.Reset(shapeFloats(nx, ny))
			b, rb := s.Block(got, nx, ny, 2), NewBlock(want, nx, ny, 2)
			if x := b.U[0][0]; !math.IsNaN(x) {
				t.Fatalf("recycled storage holds %v, not the poison", x)
			}
			fill(b, rand.New(rand.NewSource(int64(n))))
			fill(rb, rand.New(rand.NewSource(int64(n))))
			u0, ru0 := s.Block(got, nx, ny, 2), NewBlock(want, nx, ny, 2)
			u0.CopyFrom(b)
			ru0.CopyFrom(rb)

			var fl, rfl [2]*EdgeField
			for _, dir := range []Dir{X, Y} {
				qL, qR := s.EdgeField(got, nx, ny, dir), s.EdgeField(got, nx, ny, dir)
				rL, rR := NewEdgeField(want, nx, ny, dir), NewEdgeField(want, nx, ny, dir)
				States(got, b, dir, qL, qR)
				States(want, rb, dir, rL, rR)
				sameField(t, "States qL", qL, rL)
				sameField(t, "States qR", qR, rR)

				fl[dir], rfl[dir] = s.EdgeField(got, nx, ny, dir), NewEdgeField(want, nx, ny, dir)
				EFMFlux(got, qL, qR, fl[dir])
				EFMFlux(want, rL, rR, rfl[dir])
				sameField(t, "EFMFlux", fl[dir], rfl[dir])
				if gi, wi := GodunovFlux(got, qL, qR, fl[dir]), GodunovFlux(want, rL, rR, rfl[dir]); gi != wi {
					t.Errorf("GodunovFlux %v iterations = %d, on fresh storage %d", dir, gi, wi)
				}
				sameField(t, "GodunovFlux", fl[dir], rfl[dir])
			}
			const dt, dx, dy = 1e-3, 0.1, 0.1
			ApplyFluxes(got, b, b, fl[X], fl[Y], dt, dx, dy)
			ApplyFluxes(want, rb, rb, rfl[X], rfl[Y], dt, dx, dy)
			sameBlock(t, "ApplyFluxes", b, rb)
			Average(got, u0, b, b)
			Average(want, ru0, rb, rb)
			sameBlock(t, "Average", b, rb)
			sameWork(t, "the sequence so far", got, want)
		})
	}
}

// TestMemoRowLayouts runs both flux kernels against their references over
// face fields made to repeat in the ways the row-wise memo can get wrong: a
// face equal to the one above it but not to its left neighbour, and the
// reverse; a run that ends exactly at the end of a row; the last face of a
// row equal to the first of the next (which is not the face above it); rows
// of one face (a one-column Y field, where the face above is the face
// before) and fields of one row (no face above at all); qL repeating where
// qR does not. States come from a small palette so that repeats are common
// in every direction, and some are a Newton iteration or two apart so that
// a wrongly copied iteration count shows.
func TestMemoRowLayouts(t *testing.T) {
	p := testProc()
	rng := rand.New(rand.NewSource(23))
	palette := make([]Cons, 5)
	for i := range palette {
		palette[i] = ConsFromPrim(Prim{
			Rho: 0.2 + 3*rng.Float64(), U: 3 * (rng.Float64() - 0.5), V: rng.Float64() - 0.5,
			P: 0.2 + 3*rng.Float64(), Y: float64(i % 2),
		})
	}
	shapes := []struct {
		nx, ny int
		dir    Dir
	}{{1, 1, X}, {1, 1, Y}, {1, 9, Y}, {9, 1, X}, {1, 7, X}, {7, 1, Y}, {6, 5, X}, {6, 5, Y}, {13, 8, X}, {13, 8, Y}}
	iterSums := map[int]bool{}
	for _, sh := range shapes {
		for trial := 0; trial < 40; trial++ {
			qL, qR := NewEdgeField(p, sh.nx, sh.ny, sh.dir), NewEdgeField(p, sh.nx, sh.ny, sh.dir)
			row := sh.nx
			if sh.dir == X {
				row++
			}
			// Each face copies the face above, the face to its left, or
			// draws afresh, independently for qL and qR.
			for _, q := range []*EdgeField{qL, qR} {
				for k := 0; k < q.Len(); k++ {
					switch c := rng.Intn(10); {
					case c < 5 && k >= row:
						q.set(k, q.at(k-row))
					case c < 8 && k > 0:
						q.set(k, q.at(k-1))
					default:
						q.set(k, palette[rng.Intn(len(palette))])
					}
				}
			}
			fl, rfl := NewEdgeField(p, sh.nx, sh.ny, sh.dir), NewEdgeField(p, sh.nx, sh.ny, sh.dir)
			what := fmt.Sprintf("%dx%d %v trial %d", sh.nx, sh.ny, sh.dir, trial)
			g, w := GodunovFlux(p, qL, qR, fl), refGodunovFlux(p, qL, qR, rfl)
			if g != w {
				t.Fatalf("%s: GodunovFlux iterations = %d, reference %d", what, g, w)
			}
			iterSums[w-fl.Len()] = true
			sameField(t, what+" GodunovFlux", fl, rfl)
			EFMFlux(p, qL, qR, fl)
			refEFMFlux(p, qL, qR, rfl)
			sameField(t, what+" EFMFlux", fl, rfl)
		}
	}
	if len(iterSums) < 10 {
		t.Errorf("only %d distinct iteration totals: the faces no longer differ in iteration count", len(iterSums))
	}
}
