package amr

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/mpi"
)

// freshLocalPatches derives a level's local patch list from scratch, the way
// LocalPatches did before it was cached.
func freshLocalPatches(h *Hierarchy, lev int) []PatchRef {
	var out []PatchRef
	for _, m := range h.Level(lev) {
		if m.Owner == h.Rank() {
			out = append(out, PatchRef{Meta: m, Block: h.Block(m.ID)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out
}

// freshPlan derives a level's exchange plan from scratch, the way
// GhostExchange did on every call before the plan was cached: region maps
// by peer, then the peers in ascending order.
func freshPlan(h *Hierarchy, lev int) exchangePlan {
	metas, me := h.Level(lev), h.Rank()
	var plan exchangePlan
	sendTo := map[int][]copyRegion{}
	recvFrom := map[int][]copyRegion{}
	for _, d := range metas {
		gz := d.Rect.Expand(h.cfg.Ghost)
		for _, s := range metas {
			reg, ok := gz.Intersect(s.Rect)
			if s.ID == d.ID || !ok {
				continue
			}
			cr := copyRegion{srcID: s.ID, dstID: d.ID, r: reg}
			switch {
			case s.Owner == me && d.Owner == me:
				plan.local = append(plan.local, cr)
			case s.Owner == me:
				sendTo[d.Owner] = append(sendTo[d.Owner], cr)
			case d.Owner == me:
				recvFrom[s.Owner] = append(recvFrom[s.Owner], cr)
			}
		}
	}
	for peer := 0; peer < h.Size(); peer++ {
		if regions, ok := sendTo[peer]; ok {
			plan.sends = append(plan.sends, peerRegions{peer: peer, regions: regions, size: regionsSize(regions)})
		}
		if regions, ok := recvFrom[peer]; ok {
			plan.recvs = append(plan.recvs, peerRegions{peer: peer, regions: regions, size: regionsSize(regions)})
		}
	}
	return plan
}

// TestCachesFollowStructure checks the per-level caches on every rank of a
// 3-rank world, after construction and after each Regrid and LoadBalance:
// LocalPatches and the exchange plan equal a from-scratch derivation, a
// list handed out before a change reads the same after it, and appending
// to a handed-out list cannot reach the cache.
func TestCachesFollowStructure(t *testing.T) {
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 3
	moved := make([]int, wcfg.Procs)
	err := mpi.NewWorld(wcfg).Run(func(r *mpi.Rank) {
		// The case study's hierarchy: three ranks own two or three level-0
		// patches each, so some list is shorter than append would grow it.
		h, err := New(DefaultConfig(), r)
		if err != nil {
			panic(err)
		}
		check := func(stage string) bool {
			for lev := 0; lev < h.NumLevels(); lev++ {
				what := fmt.Sprintf("rank %d, %s, level %d", r.Rank(), stage, lev)
				got, want := h.LocalPatches(lev), freshLocalPatches(h, lev)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: LocalPatches\n%v\nfrom scratch\n%v", what, got, want)
					return false
				}
				if cap(got) != len(got) {
					t.Errorf("%s: LocalPatches has capacity %d beyond its length %d", what, cap(got), len(got))
					return false
				}
				if len(got) > 0 {
					grown := append(got, PatchRef{})
					grown[0].Meta.ID = -1
					if h.LocalPatches(lev)[0].Meta.ID == -1 {
						t.Errorf("%s: an append to LocalPatches' list wrote the cache", what)
						return false
					}
				}
				if p, w := fmt.Sprintf("%+v", h.cached(lev).plan), fmt.Sprintf("%+v", freshPlan(h, lev)); p != w {
					t.Errorf("%s: exchange plan\n%s\nfrom scratch\n%s", what, p, w)
					return false
				}
			}
			return true
		}
		// held keeps every level's list as handed out, and a copy of it.
		type held struct{ list, copied []PatchRef }
		hold := func() []held {
			out := make([]held, h.NumLevels())
			for lev := range out {
				l := h.LocalPatches(lev)
				out[lev] = held{l, append([]PatchRef(nil), l...)}
			}
			return out
		}
		unchanged := func(stage string, lists []held) bool {
			for lev, l := range lists {
				for i := range l.copied {
					if l.list[i] != l.copied[i] {
						t.Errorf("rank %d, %s: level %d list handed out before it changed at entry %d", r.Rank(), stage, lev, i)
						return false
					}
				}
			}
			return true
		}
		if !check("after construction") {
			return
		}
		for round := 0; round < 2; round++ {
			before := hold()
			h.Regrid()
			stage := fmt.Sprintf("after Regrid %d", round)
			if !check(stage) || !unchanged(stage, before) {
				return
			}
			before = hold()
			moved[r.Rank()] += h.LoadBalance()
			stage = fmt.Sprintf("after LoadBalance %d", round)
			if !check(stage) || !unchanged(stage, before) {
				return
			}
			h.GhostExchange(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved[0] == 0 {
		t.Error("LoadBalance moved no patch: the test no longer covers a change of owners")
	}
}

// TestWarmGhostExchangeAllocatesNothing: on a level whose structure has not
// changed, a ghost exchange in a 1-rank world reuses the cached plan and
// patch list and allocates nothing.
func TestWarmGhostExchangeAllocatesNothing(t *testing.T) {
	onOneRank(t, smallConfig(), func(h *Hierarchy) {
		for lev := 0; lev < h.NumLevels(); lev++ {
			h.GhostExchange(lev)
			if n := testing.AllocsPerRun(20, func() { h.GhostExchange(lev) }); n != 0 {
				t.Errorf("level %d: a warm GhostExchange allocates %v times", lev, n)
			}
		}
	})
}
