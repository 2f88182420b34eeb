package campaign

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// netAxis is a Dimension literal on the canonical interconnect axis: two
// nets keyed "eth" and "quiet".
func netAxis() Dimension {
	return Dimension{Name: AxisNet, Values: []DimValue{
		{Key: "eth", Value: "eth", Apply: func(w *mpi.WorldConfig) { w.Net = netmodel.FastEthernet() }},
		{Key: "quiet", Value: "quiet", Apply: func(w *mpi.WorldConfig) {
			w.Net = netmodel.Model{LatencyUS: 10, BytesPerUS: 100}
		}},
	}}
}

// expand fails the test on a grid expansion error.
func expand(t *testing.T, g Grid) []Scenario {
	t.Helper()
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

func TestGridCrossProduct(t *testing.T) {
	t.Parallel()
	g := Grid{
		Base: mpi.DefaultConfig(),
		Axes: []Dimension{
			RankAxis(2, 3),
			netAxis(),
			CacheAxis(128, 512),
		},
		Replications: 3,
	}
	scs := expand(t, g)
	if len(scs) != 2*2*2*3 {
		t.Fatalf("%d scenarios, want 24", len(scs))
	}
	keys := map[string]bool{}
	seeds := map[int64]bool{}
	for _, sc := range scs {
		if keys[sc.Key] {
			t.Errorf("duplicate key %s", sc.Key)
		}
		keys[sc.Key] = true
		if seeds[sc.World.Seed] {
			t.Errorf("duplicate seed for %s", sc.Key)
		}
		seeds[sc.World.Seed] = true
		kb, ok := sc.Num(AxisCache)
		if !ok || sc.World.Cache.SizeBytes != int(kb)*1024 {
			t.Errorf("%s: cache %d bytes vs %g kB coordinate", sc.Key, sc.World.Cache.SizeBytes, kb)
		}
		if p, ok := sc.Num(AxisRank); !ok || sc.World.Procs != int(p) {
			t.Errorf("%s: procs %d vs %g rank coordinate", sc.Key, sc.World.Procs, p)
		}
	}
	if scs[0].Key != "p2/eth/c128kB/r0" {
		t.Errorf("first key = %s", scs[0].Key)
	}
	// Expansion is deterministic.
	again := expand(t, g)
	for i := range scs {
		if scs[i].Key != again[i].Key || scs[i].World.Seed != again[i].World.Seed {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
}

func TestGridEmptyDimensionsKeepBase(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	scs := expand(t, Grid{Base: base})
	if len(scs) != 1 {
		t.Fatalf("%d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.World.Procs != base.Procs || sc.World.Cache.SizeBytes != base.Cache.SizeBytes {
		t.Errorf("scenario departed from base: %+v", sc)
	}
	if sc.World.Net != base.Net {
		t.Errorf("net departed from base")
	}

	// An unswept cache dimension must keep the exact byte size even when it
	// is not kB-aligned.
	odd := mpi.DefaultConfig()
	odd.Cache.SizeBytes, odd.Cache.Assoc = 98_816, 193 // 96.5 kB: 8 sets x 193 ways x 64 B
	got := expand(t, Grid{Base: odd})
	if got[0].World.Cache.SizeBytes != 98_816 {
		t.Errorf("unswept cache size rounded: %d bytes", got[0].World.Cache.SizeBytes)
	}

	// Unswept axes beyond the implicit rank/net/cache defaults contribute
	// neither key segments nor coordinates, keeping pre-existing grids'
	// keys (and seeds) stable.
	sc = got[0]
	if _, ok := sc.Coord("mesh"); ok {
		t.Errorf("unswept mesh axis has a coordinate: %+v", sc.Coords)
	}
	if sc.Label(AxisFlux) != "" {
		t.Errorf("unswept flux axis has a coordinate: %+v", sc.Coords)
	}
	if want := "p3/base/c96kB/r0"; sc.Key != want {
		t.Errorf("key = %s, want %s", sc.Key, want)
	}
	if sc.Label(AxisNet) != "base" {
		t.Errorf("default net coordinate = %q, want base", sc.Label(AxisNet))
	}
}

func TestGridAppDimensions(t *testing.T) {
	t.Parallel()
	g := Grid{
		Base: mpi.DefaultConfig(),
		Axes: []Dimension{
			CacheAxis(128, 512),
			{Name: "mesh", Values: []DimValue{{Key: "m96x24", Value: "96x24"}, {Key: "m192x48", Value: "192x48"}}},
			FluxAxis("godunov", "efm"),
		},
		Replications: 2,
	}
	scs := expand(t, g)
	if len(scs) != 2*2*2*2 {
		t.Fatalf("%d scenarios, want 16", len(scs))
	}
	// Deterministic nested order: caches > meshes > fluxes > reps, with
	// the swept app axes appearing as key segments.
	wantKeys := []string{
		"p3/base/c128kB/m96x24/godunov/r0",
		"p3/base/c128kB/m96x24/godunov/r1",
		"p3/base/c128kB/m96x24/efm/r0",
		"p3/base/c128kB/m96x24/efm/r1",
		"p3/base/c128kB/m192x48/godunov/r0",
	}
	for i, want := range wantKeys {
		if scs[i].Key != want {
			t.Errorf("key[%d] = %s, want %s", i, scs[i].Key, want)
		}
	}
	seeds := map[int64]bool{}
	for _, sc := range scs {
		if sc.Label("mesh") == "" || sc.Label(AxisFlux) == "" {
			t.Errorf("%s: app coordinates not populated: %+v", sc.Key, sc.Coords)
		}
		if seeds[sc.World.Seed] {
			t.Errorf("%s: duplicate seed", sc.Key)
		}
		seeds[sc.World.Seed] = true
	}
	// Expansion determinism: two expansions agree field by field.
	again := expand(t, g)
	for i := range scs {
		if scs[i].Key != again[i].Key || scs[i].World != again[i].World ||
			scs[i].Replication != again[i].Replication ||
			fmt.Sprint(scs[i].Coords) != fmt.Sprint(again[i].Coords) {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, scs[i], again[i])
		}
	}
}

// TestGridCPUAxis checks the clock axis end to end: key tokens, float64
// coordinates, and the clock the scenarios' worlds carry.
func TestGridCPUAxis(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	scs := expand(t, Grid{Base: base, Axes: []Dimension{CPUClockAxis(0.5, 1, 2)}})
	if len(scs) != 3 {
		t.Fatalf("%d scenarios, want 3", len(scs))
	}
	for i, want := range []struct {
		key   string
		scale float64
	}{
		{"p3/base/c512kB/cpu0.5x/r0", 0.5},
		{"p3/base/c512kB/cpu1x/r0", 1},
		{"p3/base/c512kB/cpu2x/r0", 2},
	} {
		sc := scs[i]
		if sc.Key != want.key {
			t.Errorf("key[%d] = %s, want %s", i, sc.Key, want.key)
		}
		if v, ok := sc.Num(AxisCPU); !ok || v != want.scale {
			t.Errorf("%s: cpu coordinate = %v (ok=%v), want %v", sc.Key, v, ok, want.scale)
		}
		if got := sc.World.CPU.ClockGHz; got != base.CPU.ClockGHz*want.scale {
			t.Errorf("%s: ClockGHz = %v, want %v", sc.Key, got, base.CPU.ClockGHz*want.scale)
		}
	}
	if scs[1].World.CPU != base.CPU {
		t.Errorf("identity scale perturbed the CPU model: %+v", scs[1].World.CPU)
	}
}

// TestGridRejectsCollisions pins the duplicate-detection contract: aliased
// axis names or value keys would silently collide scenario keys — and
// hence seeds and checkpoint entries — so expansion must refuse them.
func TestGridRejectsCollisions(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	for name, g := range map[string]Grid{
		"duplicate axis name": {Base: base, Axes: []Dimension{
			CacheAxis(128), CacheAxis(512),
		}},
		"duplicate value key": {Base: base, Axes: []Dimension{
			CacheAxis(128, 256, 128),
		}},
		"empty axis name": {Base: base, Axes: []Dimension{
			{Name: "", Values: []DimValue{{Key: "x"}}},
		}},
		"empty value key": {Base: base, Axes: []Dimension{
			{Name: "mode", Values: []DimValue{{Key: ""}}},
		}},
		"no values": {Base: base, Axes: []Dimension{
			{Name: "mode"},
		}},
		"shadowed implicit axis duplicated": {Base: base, Axes: []Dimension{
			RankAxis(2), RankAxis(3),
		}},
	} {
		if _, err := g.Scenarios(); err == nil {
			t.Errorf("%s: expansion succeeded", name)
		}
	}

	// Distinct keys across different axes are fine (segments are
	// positional), as is sweeping an implicit axis explicitly once.
	ok := Grid{Base: base, Axes: []Dimension{
		RankAxis(2, 3),
		FluxAxis("godunov"),
		{Name: "mode", Values: []DimValue{{Key: "godunov"}}},
	}}
	if _, err := ok.Scenarios(); err != nil {
		t.Errorf("legitimate grid rejected: %v", err)
	}
}

// TestGridCanonicalMachineAxisOrder pins the key-position contract: the
// rank/net/cache axes occupy the canonical leading key segments whether
// swept or defaulted and wherever the caller listed them, because the
// pre-Dimension API always spelled keys "p<r>/<net>/c<kb>kB/..." — a
// rank-only or net-only grid migrated mechanically must keep its keys
// (and so its seeds and checkpoint entries).
func TestGridCanonicalMachineAxisOrder(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	for _, tc := range []struct {
		name string
		axes []Dimension
		want string
	}{
		{"rank only", []Dimension{RankAxis(2, 3)}, "p2/base/c512kB/r0"},
		{"net only", []Dimension{netAxis()}, "p3/eth/c512kB/r0"},
		{"cache listed after flux", []Dimension{FluxAxis("efm"), CacheAxis(128)}, "p3/base/c128kB/efm/r0"},
		{"machine axes in scrambled order", []Dimension{CacheAxis(128), RankAxis(2)}, "p2/base/c128kB/r0"},
	} {
		scs := expand(t, Grid{Base: base, Axes: tc.axes})
		if scs[0].Key != tc.want {
			t.Errorf("%s: key = %s, want %s", tc.name, scs[0].Key, tc.want)
		}
	}
}

// TestGridCustomDimension exercises a user-defined axis: a name the
// library has never heard of, value keys in the scenario key, and an Apply
// mutating the world.
func TestGridCustomDimension(t *testing.T) {
	t.Parallel()
	lat := Dimension{Name: "latency", Values: []DimValue{
		{Key: "lat10", Value: 10.0, Apply: func(w *mpi.WorldConfig) { w.Net.LatencyUS = 10 }},
		{Key: "lat100", Value: 100.0, Apply: func(w *mpi.WorldConfig) { w.Net.LatencyUS = 100 }},
	}}
	scs := expand(t, Grid{Base: mpi.DefaultConfig(), Axes: []Dimension{lat}})
	if len(scs) != 2 {
		t.Fatalf("%d scenarios, want 2", len(scs))
	}
	if scs[0].Key != "p3/base/c512kB/lat10/r0" || scs[1].Key != "p3/base/c512kB/lat100/r0" {
		t.Errorf("keys = %s, %s", scs[0].Key, scs[1].Key)
	}
	if scs[0].World.Net.LatencyUS != 10 || scs[1].World.Net.LatencyUS != 100 {
		t.Errorf("latency not applied: %g, %g", scs[0].World.Net.LatencyUS, scs[1].World.Net.LatencyUS)
	}
	if v, ok := scs[1].Num("latency"); !ok || v != 100 {
		t.Errorf("numeric coordinate = %g, %v", v, ok)
	}
}

// BenchmarkGridScenarios expands a 10k-scenario grid — the allocation
// budget of grid expansion must stay flat as axes are added, because
// cmd/figures expands the grid twice per run (job build + trend join).
func BenchmarkGridScenarios(b *testing.B) {
	g := Grid{
		Base: mpi.DefaultConfig(),
		Axes: []Dimension{
			RankAxis(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
			netAxis(),
			CacheAxis(64, 128, 256, 512, 1024),
			CPUClockAxis(0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4),
			FluxAxis("godunov", "efm"),
		},
		Replications: 5,
	}
	scs, err := g.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	if len(scs) != 10_000 {
		b.Fatalf("%d scenarios, want 10000", len(scs))
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := g.Scenarios(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScenariosRejectsInvalidWorld: an invalid clock or scheduler config is
// rejected at expansion with the offending scenario key, instead of a late
// NewWorld panic inside a campaign worker.
func TestScenariosRejectsInvalidWorld(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	base.MaxParallelRanks = -1
	if _, err := (Grid{Base: base}).Scenarios(); err == nil ||
		!strings.Contains(err.Error(), "MaxParallelRanks -1") {
		t.Errorf("negative MaxParallelRanks accepted: %v", err)
	}

	for _, scale := range []float64{-2, 0} {
		_, err := Grid{Base: mpi.DefaultConfig(), Axes: []Dimension{CPUClockAxis(scale)}}.Scenarios()
		if err == nil || !strings.Contains(err.Error(), "CPU.ClockGHz") {
			t.Errorf("clock scale %g accepted: %v", scale, err)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("scenario \"p3/base/c512kB/cpu%gx/r0\"", scale)) {
			t.Errorf("error does not name the scenario: %v", err)
		}
	}
}
