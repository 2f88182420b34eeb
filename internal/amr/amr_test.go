package amr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/euler"
	"repro/internal/mpi"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 4, 5)
	if r.Nx() != 4 || r.Ny() != 5 || r.Area() != 20 || r.Empty() {
		t.Errorf("rect %v: nx=%d ny=%d area=%d", r, r.Nx(), r.Ny(), r.Area())
	}
	if (Rect{I0: 1, I1: 1, J0: 0, J1: 5}).Empty() != true {
		t.Error("zero-width rect should be empty")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 4, 4)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(2, 2, 2, 2) {
		t.Errorf("intersect = %v,%v", got, ok)
	}
	c := NewRect(10, 10, 2, 2)
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint rects intersected")
	}
	// Touching edges do not overlap (half-open).
	d := NewRect(4, 0, 2, 4)
	if _, ok := a.Intersect(d); ok {
		t.Error("edge-adjacent rects should not intersect")
	}
}

func TestRectRefineCoarsen(t *testing.T) {
	r := NewRect(1, 2, 3, 4)
	f := r.Refine(2)
	if f != NewRect(2, 4, 6, 8) {
		t.Errorf("refine = %v", f)
	}
	if c := f.Coarsen(2); c != r {
		t.Errorf("coarsen(refine) = %v, want %v", c, r)
	}
	// Coarsen rounds outward.
	odd := Rect{I0: 1, J0: 1, I1: 3, J1: 3}
	if c := odd.Coarsen(2); c != (Rect{I0: 0, J0: 0, I1: 2, J1: 2}) {
		t.Errorf("outward coarsen = %v", c)
	}
}

func TestRectContainsExpand(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	if !a.Contains(NewRect(2, 2, 3, 3)) {
		t.Error("contains failed")
	}
	if a.Contains(NewRect(8, 8, 4, 4)) {
		t.Error("contains should fail for overflow")
	}
	e := NewRect(2, 2, 2, 2).Expand(1)
	if e != NewRect(1, 1, 4, 4) {
		t.Errorf("expand = %v", e)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int }{
		{4, 2, 2, 2}, {5, 2, 2, 3}, {-1, 2, -1, 0}, {-4, 2, -2, -2}, {-5, 2, -3, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

// Property: intersect is commutative and contained in both operands.
func TestPropertyIntersect(t *testing.T) {
	f := func(a0, b0, c0, d0, a1, b1, c1, d1 uint8) bool {
		r1 := NewRect(int(a0%20), int(b0%20), int(c0%10)+1, int(d0%10)+1)
		r2 := NewRect(int(a1%20), int(b1%20), int(c1%10)+1, int(d1%10)+1)
		x, ok1 := r1.Intersect(r2)
		y, ok2 := r2.Intersect(r1)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return x == y && r1.Contains(x) && r2.Contains(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// smallConfig is a fast hierarchy for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.BaseNx, cfg.BaseNy = 32, 16
	cfg.TileNx, cfg.TileNy = 16, 8
	return cfg
}

// onOneRank builds cfg's hierarchy on the only rank of a one-rank world and
// runs body on it there: a Hierarchy is a collective over its rank's world,
// so a single-process test needs one too. body runs on the rank's goroutine,
// so it reports with t.Error and returns rather than calling t.Fatal.
func onOneRank(t *testing.T, cfg Config, body func(h *Hierarchy)) {
	t.Helper()
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 1
	err := mpi.NewWorld(wcfg).Run(func(r *mpi.Rank) {
		h, err := New(cfg, r)
		if err != nil {
			panic(err)
		}
		body(h)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyConstructionSerial(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		if h.NumLevels() != 3 {
			t.Errorf("levels = %d, want 3", h.NumLevels())
			return
		}
		// Level 0 tiles the base grid exactly.
		area := 0
		for _, m := range h.Level(0) {
			area += m.Rect.Area()
		}
		if area != 32*16 {
			t.Errorf("level-0 area = %d, want 512", area)
		}
		// Initial refinement found the shock and interface.
		if len(h.Level(1)) == 0 {
			t.Error("no level-1 patches; flagging failed")
			return
		}
		if len(h.Level(2)) == 0 {
			t.Error("no level-2 patches")
			return
		}
		// Every fine patch is nested in its parent.
		for lev := 1; lev < 3; lev++ {
			for _, m := range h.Level(lev) {
				q, ok := h.parentOf(m)
				if !ok {
					t.Errorf("patch %d at level %d has no parent", m.ID, lev)
					return
				}
				if !q.Rect.Refine(2).Contains(m.Rect) {
					t.Errorf("patch %d %v not nested in parent %v", m.ID, m.Rect, q.Rect.Refine(2))
				}
				if q.Owner != m.Owner {
					t.Errorf("patch %d owner %d != parent owner %d (subtree affinity)", m.ID, m.Owner, q.Owner)
				}
			}
		}
		// One rank: every patch local.
		for lev := 0; lev < 3; lev++ {
			for _, m := range h.Level(lev) {
				if h.Block(m.ID) == nil {
					t.Errorf("one-rank hierarchy missing block for patch %d", m.ID)
					return
				}
			}
		}
	})
}

// TestNewNeedsARank: there is no rankless hierarchy to build.
func TestNewNeedsARank(t *testing.T) {
	if _, err := New(smallConfig(), nil); err == nil {
		t.Fatal("New accepted a nil rank")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BaseNx = 0 },
		func(c *Config) { c.TileNx = 5 }, // does not divide 32
		func(c *Config) { c.MaxLevels = 0 },
		func(c *Config) { c.Ratio = 1 },
		func(c *Config) { c.Ghost = 1 },
	}
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		for i, mutate := range bad {
			cfg := smallConfig()
			mutate(&cfg)
			if _, err := New(cfg, h.r); err == nil {
				t.Errorf("case %d: invalid config accepted", i)
			}
		}
	})
}

func TestSameLevelGhostExchangeSerial(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		// Stamp each level-0 patch's interior with its ID, then exchange and
		// verify ghosts carry the neighbor's stamp.
		for _, p := range h.LocalPatches(0) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					u := p.Block.At(i, j)
					u[euler.IRhoY] = float64(p.Meta.ID + 100)
					p.Block.Set(i, j, u)
				}
			}
		}
		h.GhostExchange(0)
		left := h.LocalPatches(0)[0]  // tile at (0,0)
		right := h.LocalPatches(0)[1] // tile at (16,0)
		if left.Meta.Rect.I1 != right.Meta.Rect.I0 {
			t.Errorf("unexpected tile layout: %v then %v", left.Meta.Rect, right.Meta.Rect)
			return
		}
		// left's right ghost must hold right's stamp.
		got := left.Block.At(left.Meta.Rect.Nx(), 2)[euler.IRhoY]
		if got != float64(right.Meta.ID+100) {
			t.Errorf("ghost = %g, want %g", got, float64(right.Meta.ID+100))
		}
		// right's left ghost must hold left's stamp.
		got = right.Block.At(-1, 2)[euler.IRhoY]
		if got != float64(left.Meta.ID+100) {
			t.Errorf("ghost = %g, want %g", got, float64(left.Meta.ID+100))
		}
	})
}

func TestClusterFlagsSingleBox(t *testing.T) {
	cfg := DefaultConfig()
	patch := NewRect(10, 20, 16, 8)
	flags := make([]bool, 16*8)
	for j := 2; j < 5; j++ {
		for i := 3; i < 7; i++ {
			flags[j*16+i] = true
		}
	}
	rects := clusterFlags(flags, patch, cfg)
	if len(rects) != 1 {
		t.Fatalf("clusters = %d, want 1", len(rects))
	}
	want := NewRect(13, 22, 4, 3)
	if rects[0] != want {
		t.Errorf("cluster = %v, want %v", rects[0], want)
	}
}

func TestClusterFlagsEmpty(t *testing.T) {
	if rects := clusterFlags(make([]bool, 64), NewRect(0, 0, 8, 8), DefaultConfig()); len(rects) != 0 {
		t.Errorf("empty flags clustered to %v", rects)
	}
}

func TestClusterFlagsSplitsSparse(t *testing.T) {
	cfg := DefaultConfig()
	// Two far-apart clusters in one patch must yield two rectangles.
	flags := make([]bool, 32*8)
	flags[2*32+2] = true
	flags[2*32+3] = true
	flags[6*32+28] = true
	flags[6*32+29] = true
	rects := clusterFlags(flags, NewRect(0, 0, 32, 8), cfg)
	if len(rects) < 2 {
		t.Fatalf("sparse flags produced %d cluster(s): %v", len(rects), rects)
	}
	total := 0
	for _, r := range rects {
		total += r.Area()
	}
	if total > 64 {
		t.Errorf("clustering wasteful: %d cells for 4 flags", total)
	}
	// All flagged cells covered.
	for _, cell := range [][2]int{{2, 2}, {3, 2}, {28, 6}, {29, 6}} {
		covered := false
		for _, r := range rects {
			if cell[0] >= r.I0 && cell[0] < r.I1 && cell[1] >= r.J0 && cell[1] < r.J1 {
				covered = true
			}
		}
		if !covered {
			t.Errorf("flagged cell %v not covered by %v", cell, rects)
		}
	}
}

func TestProlongRestrictRoundTrip(t *testing.T) {
	// Conservative pair: restricting a prolonged field returns the coarse
	// original exactly.
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		fines := h.LocalPatches(1)
		if len(fines) == 0 {
			t.Error("no fine patches")
			return
		}
		p := fines[0]
		q, _ := h.parentOf(p.Meta)
		parent := h.Block(q.ID)
		// Snapshot parent's covered region.
		cr := p.Meta.Rect.Coarsen(2)
		before := map[[2]int]euler.Cons{}
		for cj := cr.J0; cj < cr.J1; cj++ {
			for ci := cr.I0; ci < cr.I1; ci++ {
				before[[2]int{ci, cj}] = parent.At(ci-q.Rect.I0, cj-q.Rect.J0)
			}
		}
		h.ProlongInterior(p.Meta, p.Block)
		h.Restrict(1)
		for cj := cr.J0; cj < cr.J1; cj++ {
			for ci := cr.I0; ci < cr.I1; ci++ {
				after := parent.At(ci-q.Rect.I0, cj-q.Rect.J0)
				want := before[[2]int{ci, cj}]
				for v := 0; v < euler.NVars; v++ {
					if math.Abs(after[v]-want[v]) > 1e-11*(1+math.Abs(want[v])) {
						t.Errorf("cell (%d,%d) var %d: %g != %g (not conservative)",
							ci, cj, v, after[v], want[v])
						return
					}
				}
			}
		}
	})
}

func TestRegridPreservesOverlapData(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		// Tag level-1 data with a recognizable value in IRhoY, then regrid
		// without changing level-0 data: overlapping new patches must keep it.
		marker := 7777.0
		markedCells := map[[2]int]bool{}
		for _, p := range h.LocalPatches(1) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					u := p.Block.At(i, j)
					u[euler.IRhoY] = marker
					p.Block.Set(i, j, u)
					markedCells[[2]int{p.Meta.Rect.I0 + i, p.Meta.Rect.J0 + j}] = true
				}
			}
		}
		h.Regrid()
		found, preserved := 0, 0
		for _, p := range h.LocalPatches(1) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					if markedCells[[2]int{p.Meta.Rect.I0 + i, p.Meta.Rect.J0 + j}] {
						found++
						if p.Block.At(i, j)[euler.IRhoY] == marker {
							preserved++
						}
					}
				}
			}
		}
		if found == 0 {
			t.Error("regrid dropped all previously refined cells")
			return
		}
		if preserved != found {
			t.Errorf("only %d of %d overlapping cells preserved", preserved, found)
		}
	})
}

func TestRegridKeepsNesting(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		h.Regrid()
		for lev := 1; lev < h.NumLevels(); lev++ {
			dom := h.levelDomain(lev)
			for _, m := range h.Level(lev) {
				q, ok := h.parentOf(m)
				if !ok || !q.Rect.Refine(2).Contains(m.Rect) {
					t.Errorf("level %d patch %v not nested (parent ok=%v)", lev, m.Rect, ok)
				}
				if !dom.Contains(m.Rect) {
					t.Errorf("patch %v outside domain %v", m.Rect, dom)
				}
			}
		}
	})
}

// parallelImage builds a P-rank hierarchy, optionally load-balances, and
// returns the composed density image.
func parallelImage(t *testing.T, procs int, balance bool) []float64 {
	t.Helper()
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = procs
	wcfg.Net.NoiseSigma = 0 // noise affects clocks only, but keep it quiet
	w := mpi.NewWorld(wcfg)
	var img []float64
	err := w.Run(func(r *mpi.Rank) {
		h, err := New(smallConfig(), r)
		if err != nil {
			panic(err)
		}
		if balance {
			h.LoadBalance()
			h.GhostExchange(0)
		}
		_, _, im := h.DensityImage()
		if r.Rank() == 0 {
			img = im
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestParallelHierarchyMatchesSerial(t *testing.T) {
	serialImg := parallelImage(t, 1, false)
	parImg := parallelImage(t, 3, false)
	if len(serialImg) != len(parImg) {
		t.Fatalf("image sizes differ: %d vs %d", len(serialImg), len(parImg))
	}
	for k := range serialImg {
		if serialImg[k] != parImg[k] {
			t.Fatalf("pixel %d differs: serial %g vs parallel %g", k, serialImg[k], parImg[k])
		}
	}
}

func TestParallelDistributesPatches(t *testing.T) {
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 3
	w := mpi.NewWorld(wcfg)
	err := w.Run(func(r *mpi.Rank) {
		h, err := New(smallConfig(), r)
		if err != nil {
			panic(err)
		}
		// Metadata says multiple owners exist.
		owners := map[int]bool{}
		for _, m := range h.Level(0) {
			owners[m.Owner] = true
		}
		if len(owners) < 2 {
			panic("level 0 not distributed")
		}
		// Blocks exist exactly for local patches.
		for lev := 0; lev < h.NumLevels(); lev++ {
			for _, m := range h.Level(lev) {
				has := h.Block(m.ID) != nil
				if has != (m.Owner == r.Rank()) {
					panic("block locality does not match ownership")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadBalanceReducesImbalanceAndPreservesData(t *testing.T) {
	// A deliberately skewed initial distribution: New assigns tiles
	// contiguously, so the refined region (around shock+interface) piles
	// onto some ranks; LoadBalance must not change the composed field.
	unbalanced := parallelImage(t, 3, false)
	balanced := parallelImage(t, 3, true)
	for k := range unbalanced {
		if unbalanced[k] != balanced[k] {
			t.Fatalf("LoadBalance changed the field at pixel %d: %g vs %g",
				k, unbalanced[k], balanced[k])
		}
	}
}

func TestLoadBalanceImbalanceMetric(t *testing.T) {
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 3
	w := mpi.NewWorld(wcfg)
	err := w.Run(func(r *mpi.Rank) {
		h, err := New(smallConfig(), r)
		if err != nil {
			panic(err)
		}
		before := h.Imbalance()
		h.LoadBalance()
		after := h.Imbalance()
		if after > before+1e-9 {
			panic("LoadBalance increased imbalance")
		}
		// Every rank must agree on the metric (replicated metadata).
		agreed := r.Comm.Allreduce(mpi.OpMax, []float64{after})
		if agreed[0] != after {
			panic("ranks disagree on imbalance")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalMassPositive(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		m := h.TotalMass()
		if m <= 0 {
			t.Errorf("total mass = %g", m)
			return
		}
		// Mass should roughly equal the analytic integral: air region ~1*A1 +
		// freon ~3*A2 + post-shock ~1.86*A3 over a 4x1 domain.
		if m < 4 || m > 12 {
			t.Errorf("total mass %g outside plausible range", m)
		}
	})
}

// TestTotalMassAcrossRanks holds the collective TotalMass to one value
// however the hierarchy is distributed: one rank and three agree, and a
// three-rank LoadBalance, which moves patches but no mass, leaves it alone.
func TestTotalMassAcrossRanks(t *testing.T) {
	var one float64
	onOneRank(t, smallConfig(), func(h *Hierarchy) { one = h.TotalMass() })
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 3
	var before, after [3]float64
	moved := 0
	err := mpi.NewWorld(wcfg).Run(func(r *mpi.Rank) {
		h, err := New(smallConfig(), r)
		if err != nil {
			panic(err)
		}
		before[r.Rank()] = h.TotalMass()
		if n := h.LoadBalance(); r.Rank() == 0 {
			moved = n
		}
		after[r.Rank()] = h.TotalMass()
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("LoadBalance moved no patch: the conservation check would be vacuous")
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	for rank := range before {
		if d := rel(before[rank], one); d > 1e-12 {
			t.Errorf("rank %d: 3-rank mass %.17g vs 1-rank %.17g (rel %g)", rank, before[rank], one, d)
		}
		if d := rel(after[rank], before[rank]); d > 1e-12 {
			t.Errorf("rank %d: mass %.17g after LoadBalance, %.17g before (rel %g)", rank, after[rank], before[rank], d)
		}
	}
}

func TestStatsAndLocalCells(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		st := h.Stats()
		if len(st) != 3 {
			t.Errorf("stats levels = %d", len(st))
			return
		}
		if st[0].Cells != 512 {
			t.Errorf("level-0 cells = %d, want 512", st[0].Cells)
		}
		if h.Imbalance() != 1 {
			t.Errorf("one-rank imbalance = %g, want 1", h.Imbalance())
		}
	})
}

func TestDensityImageCompositesFinest(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		nx, ny, img := h.DensityImage()
		if nx != 32*4 || ny != 16*4 {
			t.Errorf("image %dx%d, want 128x64", nx, ny)
			return
		}
		// All pixels positive (density), and both phases present.
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range img {
			if v <= 0 {
				t.Error("non-positive density pixel")
				return
			}
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		if minV > 1.01 || maxV < 2.5 {
			t.Errorf("image range [%g,%g] does not span air..Freon", minV, maxV)
		}
	})
}
