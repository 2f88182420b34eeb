package harness

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// TestGridStabilityGolden pins, for three representative grids, every
// scenario key and derived seed in expansion order, byte for byte. Keys
// name row shards and seeds drive every simulated machine, so a drift here
// moves rendered output; store addresses are not pinned — they are stable
// within a checkpoint version only.
func TestGridStabilityGolden(t *testing.T) {
	t.Parallel()
	base := DefaultSweep(KernelStates).World
	base.Procs = 2
	base.Seed = 1

	wide := campaign.Grid{
		Base: base,
		Axes: []campaign.Dimension{
			campaign.RankAxis(2, 3),
			{Name: campaign.AxisNet, Values: []campaign.DimValue{
				{Key: "eth", Value: "eth", Apply: func(w *mpi.WorldConfig) { w.Net = netmodel.FastEthernet() }},
				{Key: "quiet", Value: "quiet", Apply: func(w *mpi.WorldConfig) {
					w.Net = netmodel.Model{LatencyUS: 10, BytesPerUS: 100}
				}},
			}},
			campaign.CacheAxis(128, 512),
			{Name: "mesh", Values: []campaign.DimValue{{Key: "m96x24", Value: "96x24"}, {Key: "m192x48", Value: "192x48"}}},
			campaign.FluxAxis("godunov", "efm"),
		},
		Replications: 2,
		BaseSeed:     7,
	}

	odd := mpi.DefaultConfig()
	odd.Cache.SizeBytes, odd.Cache.Assoc = 98_816, 193 // 96.5 kB: 8 sets x 193 ways x 64 B

	trendBase := DefaultSweep(KernelStates).World
	trendBase.Procs = 3
	trendBase.Seed = 1

	var got bytes.Buffer
	for _, tc := range []struct {
		id   string
		grid campaign.Grid
	}{
		{"wide", wide},
		{"unswept", campaign.Grid{Base: odd}},
		{"trend", campaign.Grid{
			Base:         trendBase,
			Axes:         []campaign.Dimension{campaign.CacheAxis(128, 256, 512, 1024)},
			Replications: 2,
			BaseSeed:     1,
		}},
	} {
		scs, err := tc.grid.Scenarios()
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		for _, sc := range scs {
			fmt.Fprintf(&got, "scenario\t%s\t%s\t%d\n", tc.id, sc.Key, sc.World.Seed)
		}
	}
	want, err := os.ReadFile("testdata/grid_stability_golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("grid keys or seeds drifted\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestCPUAxisHashesDistinct is the fingerprint's distinctness contract:
// every field a job's result depends on moves its checkpoint hash, so a
// store never answers one experiment with another's payload. The
// scheduler is not one of them: every scheduler measures the same bytes,
// so it leaves the hash, and a store filled under one serves them all.
func TestCPUAxisHashesDistinct(t *testing.T) {
	t.Parallel()
	base := DefaultSweep(KernelStates)
	scs, err := campaign.Grid{Base: base.World}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	plain := scs[0]

	ref := StreamJob(base, plain).Hash
	for _, tc := range []struct {
		name string
		flip func(*mpi.WorldConfig)
	}{
		{"CPU.ClockGHz", func(w *mpi.WorldConfig) { w.CPU.ClockGHz *= 2 }},
		{"Cache.SizeBytes", func(w *mpi.WorldConfig) { w.Cache.SizeBytes *= 2 }},
		{"Seed", func(w *mpi.WorldConfig) { w.Seed++ }},
	} {
		sc := plain
		tc.flip(&sc.World)
		if StreamJob(base, sc).Hash == ref {
			t.Errorf("flipping %s leaves the stream job's hash unchanged", tc.name)
		}
		// SweepJob and CaseStudyJob hash configs, not scenarios: the world
		// alone must carry the difference.
		b := base
		b.World = sc.World
		if SweepJob("k", b).Hash == SweepJob("k", base).Hash {
			t.Errorf("flipping %s leaves the sweep job's hash unchanged", tc.name)
		}
	}
	for _, tc := range []struct {
		name string
		flip func(*mpi.WorldConfig)
	}{
		{"Sched", func(w *mpi.WorldConfig) { w.Sched = mpi.ConservativeParallel }},
		{"MaxParallelRanks", func(w *mpi.WorldConfig) { w.MaxParallelRanks = 4 }},
	} {
		sc := plain
		tc.flip(&sc.World)
		if StreamJob(base, sc).Hash != ref {
			t.Errorf("flipping %s moves the stream job's hash", tc.name)
		}
		b, b0 := base, base
		b.World, b0.World = sc.World, plain.World
		if SweepJob("k", b).Hash != SweepJob("k", b0).Hash {
			t.Errorf("flipping %s moves the sweep job's hash", tc.name)
		}
		cs := DefaultCaseStudy()
		c := cs
		tc.flip(&c.World)
		if CaseStudyJob("k", c).Hash != CaseStudyJob("k", cs).Hash {
			t.Errorf("flipping %s moves the case study job's hash", tc.name)
		}
	}
	efm := base
	efm.Kernel = KernelEFM
	if StreamJob(efm, plain).Hash == ref {
		t.Error("changing the kernel leaves the stream job's hash unchanged")
	}
	custom := plain
	custom.Coords = append(append([]campaign.Coord(nil), plain.Coords...),
		campaign.Coord{Axis: "latency", Key: "lat10", Value: 10.0})
	if StreamJob(base, custom).Hash == ref {
		t.Error("a custom coordinate leaves the stream job's hash unchanged")
	}

	// The scheduler is how a world runs, not a grid coordinate: one grid
	// under two Base schedulers keeps its keys, seeds and checkpoint
	// entries.
	par := base.World
	par.Sched = mpi.ConservativeParallel
	var hashes [2]string
	for i, w := range []mpi.WorldConfig{base.World, par} {
		scs, err := campaign.Grid{Base: w}.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		if scs[0].Key != plain.Key || scs[0].World.Seed != plain.World.Seed {
			t.Errorf("scheduler %v: scenario %q seed %d, want %q seed %d",
				w.Sched, scs[0].Key, scs[0].World.Seed, plain.Key, plain.World.Seed)
		}
		hashes[i] = StreamJob(base, scs[0]).Hash
	}
	if hashes[0] != hashes[1] {
		t.Error("one grid under two schedulers has two checkpoint hashes")
	}
}

// TestHashedConfigsArePlainValues guards the one way %#v stops being a
// deterministic fingerprint: a pointer, map, func, chan or unsafe.Pointer
// inside a hashed config renders as an address (or, for a map, invites
// one). It walks everything jobHash is handed: the config structs, the
// scenario, and every coordinate value the library's axes put on one.
func TestHashedConfigsArePlainValues(t *testing.T) {
	t.Parallel()
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Interface:
			// An interface hides its dynamic type from this walk; the one
			// hashed interface field is walked value by value below.
			if path != "Scenario.Coords[].Value" {
				t.Errorf("%s is an interface: its dynamic type escapes this check", path)
			}
		case reflect.Ptr, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: %%#v of it is not a stable fingerprint", path, typ.Kind())
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("SweepConfig", reflect.TypeOf(SweepConfig{}))
	walk("CaseStudyConfig", reflect.TypeOf(CaseStudyConfig{}))
	walk("Scenario", reflect.TypeOf(campaign.Scenario{}))

	base := mpi.DefaultConfig()
	for _, axes := range [][]campaign.Dimension{
		{
			campaign.RankAxis(2),
			campaign.CacheAxis(128),
			campaign.FluxAxis("efm"),
			campaign.CPUClockAxis(2),
		},
	} {
		scs, err := campaign.Grid{Base: base, Axes: axes}.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			for _, c := range sc.Coords {
				walk("Coord["+c.Axis+"].Value", reflect.TypeOf(c.Value))
			}
		}
	}
}
