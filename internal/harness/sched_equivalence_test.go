package harness

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/results"
)

// This file holds the rank schedulers to the serial one at the harness
// layer: the case study (profiles, virtual clocks, rendered FUNCTION
// SUMMARY, Fig. 9 series) and a grid streamed under each scheduler as its
// Base (keys, seeds, rows and models). A sweep runs no scheduler — it
// records rank 0 on a one-rank serial world — so its bytes are pinned by
// TestRecordReadersGolden and bench's sweep_cold goldens instead.

// goldenTrendGrid rebuilds the PR 3 golden "trend" grid over a reduced
// States sweep.
func goldenTrendGrid(t *testing.T) (SweepConfig, campaign.Grid) {
	t.Helper()
	base := DefaultSweep(KernelStates)
	base.World.Procs = 3
	base.World.Seed = 1
	base.Sizes = base.Sizes[:4]
	base.Reps = 2
	return base, campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(128, 256, 512, 1024)},
		Replications: 2,
		BaseSeed:     1,
	}
}

// withSched returns the sweep config under the given scheduler mode.
func withSched(cfg SweepConfig, mode mpi.SchedulerMode) SweepConfig {
	cfg.World.Sched = mode
	return cfg
}

// TestPoisonedMessagesParallelEquivalence runs the case study's
// ParallelEquivalence check with every released mpi message poisoned, so
// that a scheduler reading a recycled message after its last use shows as
// a difference. Not parallel: the hook is process-wide.
func TestPoisonedMessagesParallelEquivalence(t *testing.T) {
	t.Cleanup(mpi.PoisonReleasedMessages())
	t.Run("CaseStudy", caseStudyParallelEquivalence)
}

// TestShardDirIdenticalAcrossSchedulers pins what `diff -r` of two output
// directories sees: the same grid streamed into a shard sink under each
// scheduler leaves the same file names holding the same bytes. Host-timing
// telemetry has no place in rows/.
func TestShardDirIdenticalAcrossSchedulers(t *testing.T) {
	t.Parallel()
	base, grid := goldenTrendGrid(t)
	grid.Axes = []campaign.Dimension{campaign.CacheAxis(128)}
	grid.Replications = 1
	shards := func(mode mpi.SchedulerMode) map[string][]byte {
		b := withSched(base, mode)
		g := grid
		g.Base = b.World
		dir := t.TempDir()
		sink, err := results.NewCSVShardSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := StreamSweepGrid(context.Background(), campaign.Config{Sink: sink}, b, g); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return readDirFiles(t, dir)
	}
	serial := shards(mpi.Serial)
	if len(serial) == 0 {
		t.Fatal("no row shards emitted")
	}
	for _, mode := range []mpi.SchedulerMode{mpi.ConservativeParallel, mpi.OptimisticParallel} {
		got := shards(mode)
		for name, data := range got {
			want, ok := serial[name]
			if !ok {
				t.Errorf("%v: shard %s has no serial counterpart", mode, name)
			} else if !bytes.Equal(want, data) {
				t.Errorf("%v: shard %s differs from serial", mode, name)
			}
		}
		if len(got) != len(serial) {
			t.Errorf("%v emitted %d shards, serial %d", mode, len(got), len(serial))
		}
	}
}

// TestCaseStudyParallelEquivalence runs the Fig. 3 profile workload — the
// full component application with ghost exchanges, load balancing and the
// Mastermind interposed — under both schedulers and compares profiles,
// per-rank virtual clocks, the rendered FUNCTION SUMMARY and the Fig. 9
// ghost-communication series byte for byte.
func TestCaseStudyParallelEquivalence(t *testing.T) {
	t.Parallel()
	caseStudyParallelEquivalence(t)
}

func caseStudyParallelEquivalence(t *testing.T) {
	cfg := DefaultCaseStudy()
	cfg.App.Mesh.BaseNx, cfg.App.Mesh.BaseNy = 48, 12
	cfg.App.Mesh.TileNx, cfg.App.Mesh.TileNy = 12, 6
	cfg.App.Driver.Steps = 8
	cfg.App.Driver.RegridInterval = 4

	serial, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	render := func(res *CaseStudyResult) (string, string) {
		var prof, ghost strings.Builder
		if err := res.WriteProfile(&prof); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteGhostCommCSV(&ghost); err != nil {
			t.Fatal(err)
		}
		return prof.String(), ghost.String()
	}
	profS, ghostS := render(serial)

	for _, mode := range []mpi.SchedulerMode{mpi.ConservativeParallel, mpi.OptimisticParallel} {
		parCfg := cfg
		parCfg.World.Sched = mode
		par, err := RunCaseStudy(parCfg)
		if err != nil {
			t.Fatal(err)
		}

		for r := range serial.Profiles {
			var bs, bp bytes.Buffer
			if err := gob.NewEncoder(&bs).Encode(serial.Profiles[r]); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewEncoder(&bp).Encode(par.Profiles[r]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
				t.Errorf("rank %d: serialized TAU profile differs between serial and %v", r, mode)
			}
		}
		profP, ghostP := render(par)
		if profS != profP {
			t.Errorf("FUNCTION SUMMARY differs under %v:\nserial:\n%s\nparallel:\n%s", mode, profS, profP)
		}
		if ghostS != ghostP {
			t.Errorf("ghost-communication CSV differs between serial and %v", mode)
		}
		if serial.SimTime != par.SimTime || serial.StepsTaken != par.StepsTaken {
			t.Errorf("driver progress differs under %v: serial t=%v/%d steps, parallel t=%v/%d steps",
				mode, serial.SimTime, serial.StepsTaken, par.SimTime, par.StepsTaken)
		}
		if !reflect.DeepEqual(serial.Image, par.Image) {
			t.Errorf("density image differs between serial and %v", mode)
		}
	}
}

// TestSchedGridEquivalenceAtScale runs one grid (a machine axis crossed
// with replications) under each scheduler as its Base: every scheduler
// expands the same keys and seeds, streams the same rows and fits the same
// models.
func TestSchedGridEquivalenceAtScale(t *testing.T) {
	t.Parallel()
	base := DefaultSweep(KernelStates)
	base.World.Procs = 2
	base.Sizes = base.Sizes[:3]
	base.Reps = 2
	var ref []GridPoint
	var refSink *results.MemorySink
	for _, mode := range []mpi.SchedulerMode{mpi.Serial, mpi.ConservativeParallel, mpi.OptimisticParallel} {
		g := campaign.Grid{
			Base:         base.World,
			Axes:         []campaign.Dimension{campaign.CacheAxis(128, 512)},
			Replications: 2,
		}
		g.Base.Sched = mode
		sink := results.NewMemorySink()
		points, err := StreamSweepGrid(context.Background(), campaign.Config{Sink: sink}, base, g)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refSink = points, sink
			continue
		}
		if len(points) != len(ref) {
			t.Fatalf("%v: %d grid points, want %d", mode, len(points), len(ref))
		}
		for i, p := range points {
			r := ref[i]
			if p.Scenario.Key != r.Scenario.Key || p.Scenario.World.Seed != r.Scenario.World.Seed {
				t.Errorf("%v: scenario %q seed %d, want %q seed %d",
					mode, p.Scenario.Key, p.Scenario.World.Seed, r.Scenario.Key, r.Scenario.World.Seed)
			}
			rows := refSink.Rows(r.Scenario.Key)
			if len(rows) == 0 {
				t.Errorf("%s: no rows streamed", r.Scenario.Key)
			}
			if !reflect.DeepEqual(rows, sink.Rows(p.Scenario.Key)) {
				t.Errorf("%s: streamed rows differ under %v", p.Scenario.Key, mode)
			}
			if !reflect.DeepEqual(r.Model, p.Model) {
				t.Errorf("%s: fitted model differs under %v", p.Scenario.Key, mode)
			}
		}
	}
}
