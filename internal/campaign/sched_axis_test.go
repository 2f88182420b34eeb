package campaign

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// TestSchedAxisExpansion: the scheduler axis contributes key segments but
// not seeds — scenarios differing only in scheduler share a derived seed
// (they are the same experiment executed differently), while every other
// identity (key, world seed per cache value, coordinates) stays intact.
func TestSchedAxisExpansion(t *testing.T) {
	t.Parallel()
	base := mpi.DefaultConfig()
	plain := Grid{
		Base:         base,
		Axes:         []Dimension{CacheAxis(128, 512)},
		Replications: 2,
	}
	swept := plain
	swept.Axes = append([]Dimension{}, plain.Axes...)
	swept.Axes = append(swept.Axes, SchedAxis(
		SchedChoice{Mode: mpi.Serial},
		SchedChoice{Mode: mpi.ConservativeParallel, MaxParallelRanks: 4},
	))

	plainScs, err := plain.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := swept.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2*len(plainScs) {
		t.Fatalf("swept grid has %d scenarios, want %d", len(scs), 2*len(plainScs))
	}
	seedOf := map[string]int64{}
	for _, sc := range plainScs {
		seedOf[sc.Key] = sc.World.Seed
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Key] {
			t.Fatalf("duplicate scenario key %q", sc.Key)
		}
		seen[sc.Key] = true
		label := sc.Label(AxisSched)
		if label != "serial" && label != "par4" {
			t.Fatalf("scenario %q: sched label %q", sc.Key, label)
		}
		// Strip the sched segment: the remaining key must be a plain-grid
		// scenario with the SAME derived seed (the axis is seed-inert).
		bare := strings.Replace(sc.Key, "/"+label, "", 1)
		want, ok := seedOf[bare]
		if !ok {
			t.Fatalf("scenario %q has no plain counterpart %q", sc.Key, bare)
		}
		if sc.World.Seed != want {
			t.Errorf("scenario %q: seed %d, want %d (sched axis must be seed-inert)", sc.Key, sc.World.Seed, want)
		}
		choice := sc.Coords[len(sc.Coords)-1].Value.(SchedChoice)
		if sc.World.Sched != choice.Mode || sc.World.MaxParallelRanks != choice.MaxParallelRanks {
			t.Errorf("scenario %q: world sched %v/%d does not reflect coordinate %+v",
				sc.Key, sc.World.Sched, sc.World.MaxParallelRanks, choice)
		}
	}
}

// TestSchedModeAxisKeys pins the stable key tokens.
func TestSchedModeAxisKeys(t *testing.T) {
	t.Parallel()
	d := SchedAxis(SchedChoice{Mode: mpi.Serial, MaxParallelRanks: 4}, SchedChoice{Mode: mpi.ConservativeParallel},
		SchedChoice{Mode: mpi.OptimisticParallel, MaxParallelRanks: 8})
	if d.Name != AxisSched || !d.SeedInert {
		t.Fatalf("SchedAxis = %+v, want seed-inert %q axis", d, AxisSched)
	}
	if d.Values[0].Key != "serial" || d.Values[1].Key != "par" || d.Values[2].Key != "opt8" {
		t.Fatalf("keys = %q, %q, %q; want serial, par, opt8", d.Values[0].Key, d.Values[1].Key, d.Values[2].Key)
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
