package harness

import (
	"context"
	"reflect"
	"strings"
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

// TestCampaignWorkerCountInvariance is the engine's core guarantee: a
// campaign's results are byte-identical whether it runs on one worker or
// many, because every job owns a self-contained simulated machine seeded
// from its config, never from scheduling.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	kbs := []int{128, 512}

	serial, err := RunCacheStudy(context.Background(), campaign.Config{Workers: 1}, base, kbs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCacheStudy(context.Background(), campaign.Config{Workers: 4}, base, kbs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("cache study differs between 1 and 4 workers")
	}
	var s1, s4 strings.Builder
	if err := WriteCacheStudy(&s1, KernelStates, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCacheStudy(&s4, KernelStates, parallel); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s4.String() {
		t.Errorf("cache study report not byte-identical:\n%s\nvs\n%s", s1.String(), s4.String())
	}
	if serial[0].Scenario.Key != "cache/128kB" || serial[1].Scenario.Key != "cache/512kB" {
		t.Errorf("points out of submission order: %s, %s", serial[0].Scenario.Key, serial[1].Scenario.Key)
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
	// and the scenario key. (Sweep timings themselves are shape-driven and
	// seed-invariant; the seed matters where noise enters, e.g. the
	// network — see TestCaseStudySeedSensitivity.)
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
