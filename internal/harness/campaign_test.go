package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/results"
)

// tinySweep is the smallest sweep that still exercises both modes and the
// model fits — campaign correctness tests re-run it several times.
func tinySweep(k Kernel) SweepConfig {
	cfg := DefaultSweep(k)
	cfg.Sizes = LogSizes(2_000, 30_000, 3)
	cfg.Reps = 1
	cfg.World.Procs = 2
	return cfg
}

// TestSweepRowsIgnoreSeed pins the invariant the single-replica trend grid
// stands on: a kernel sweep's rows are a function of its shape and machine,
// never of its seed. Every kernel, at two cache sizes, runs under two
// replications — two scenario keys, two derived seeds — and both must give
// the same rows. The seed matters only where noise enters (the case
// study's network, TestCaseStudySeedSensitivity).
func TestSweepRowsIgnoreSeed(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	scs, err := campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(128, 1024), campaign.FluxAxis("states", "godunov", "efm")},
		Replications: 2,
		BaseSeed:     1,
	}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]campaign.Job, len(scs))
	for i, sc := range scs {
		cfg, err := scenarioSweepConfig(base, sc)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = SweepJob(sc.Key, cfg)
	}
	res, err := campaign.Run(context.Background(), campaign.Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Replications are the innermost dimension: r0 and r1 are neighbours.
	for i := 0; i < len(scs); i += 2 {
		r0, r1 := scs[i], scs[i+1]
		if r0.World.Seed == r1.World.Seed {
			t.Fatalf("%s and %s share seed %d", r0.Key, r1.Key, r0.World.Seed)
		}
		rows0 := res[i].Value.(*SweepResult).Rows()
		rows1 := res[i+1].Value.(*SweepResult).Rows()
		if !reflect.DeepEqual(rows0, rows1) {
			t.Errorf("%s (seed %d) and %s (seed %d) measured different rows: "+
				"figures' one-replica trend grid and the per-key seeding assume a sweep's rows ignore the seed",
				r0.Key, r0.World.Seed, r1.Key, r1.World.Seed)
		}
	}
}

// TestRunSweepsMatchesSerial checks a parallel campaign of SweepJobs
// against direct serial RunSweep calls.
func TestRunSweepsMatchesSerial(t *testing.T) {
	t.Parallel()
	cfgs := []SweepConfig{tinySweep(KernelStates), tinySweep(KernelEFM)}
	jobs := []campaign.Job{SweepJob("sweep/states", cfgs[0]), SweepJob("sweep/efm", cfgs[1])}
	got, err := campaign.Run(context.Background(), campaign.Config{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Value, want) {
			t.Errorf("sweep %d (%s) differs from serial run", i, cfg.Kernel)
		}
	}
}

// TestStreamSweepGridWorkerCountInvariance covers the scenario cross
// product: per-scenario seeds must make replications statistically
// independent while the whole grid — points and streamed rows — stays
// deterministic across worker counts.
func TestStreamSweepGridWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	g := campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(128, 512)},
		Replications: 2,
		BaseSeed:     7,
	}
	run := func(workers int) ([]GridPoint, *results.MemorySink) {
		sink := results.NewMemorySink()
		pts, err := StreamSweepGrid(context.Background(), campaign.Config{Workers: workers, Sink: sink}, base, g)
		if err != nil {
			t.Fatal(err)
		}
		return pts, sink
	}
	one, oneRows := run(1)
	many, manyRows := run(4)
	if len(one) != 4 {
		t.Fatalf("%d grid points, want 4", len(one))
	}
	if !reflect.DeepEqual(one, many) {
		t.Error("grid points differ between 1 and 4 workers")
	}
	if !reflect.DeepEqual(sinkRows(oneRows), sinkRows(manyRows)) {
		t.Error("streamed rows differ between 1 and 4 workers")
	}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range one {
		if p.Scenario.Key != scs[i].Key {
			t.Errorf("point %d key %s, want %s", i, p.Scenario.Key, scs[i].Key)
		}
		if p.Model == nil || len(oneRows.Rows(p.Scenario.Key)) == 0 {
			t.Errorf("point %d empty", i)
		}
	}
	// Replications derive distinct, deterministic seeds from the base seed
	// and the scenario key. (Sweep rows themselves ignore the seed — see
	// TestSweepRowsIgnoreSeed; the seed matters where noise enters, e.g.
	// the network — see TestCaseStudySeedSensitivity.)
	if one[0].Scenario.World.Seed == one[1].Scenario.World.Seed {
		t.Error("replications share a seed")
	}
}

// TestCaseStudySeedSensitivity pins down where per-scenario seeds matter:
// the interconnect's seeded load noise. Two case-study runs differing only
// in seed must disagree on communication time, while replaying either seed
// reproduces it exactly (determinism is per (config, seed), never per
// schedule).
func TestCaseStudySeedSensitivity(t *testing.T) {
	t.Parallel()
	cfg1 := fastCaseStudy()
	cfg1.World.Seed = 11
	cfg2 := fastCaseStudy()
	cfg2.World.Seed = 22
	jobs := []campaign.Job{
		CaseStudyJob("s11", cfg1),
		CaseStudyJob("s11b", cfg1),
		CaseStudyJob("s22", cfg2),
	}
	res, err := campaign.Run(context.Background(), campaign.Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wait := func(i int) float64 {
		return res[i].Value.(*CaseStudyResult).TimerShare("MPI_Waitsome()")
	}
	if wait(0) != wait(1) {
		t.Errorf("same seed, different Waitsome share: %v vs %v", wait(0), wait(1))
	}
	if wait(0) == wait(2) {
		t.Error("different seeds produced identical Waitsome share")
	}
}

// TestCampaignJobFailurePropagates checks error aggregation through the
// harness adapters: an impossible sweep fails its job and the campaign
// reports it.
func TestCampaignJobFailurePropagates(t *testing.T) {
	t.Parallel()
	jobs := []campaign.Job{SweepJob("sweep/empty", SweepConfig{Kernel: KernelStates})}
	if _, err := campaign.Run(context.Background(), campaign.Config{}, jobs); err == nil {
		t.Fatal("empty sweep config accepted")
	}
}
