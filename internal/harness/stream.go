package harness

import (
	"context"

	"repro/internal/campaign"
)

// This file is the grid path. It never buffers a scenario's SweepResult:
// StreamSweepGrid emits each sweep's telemetry rows into the campaign sink
// and keeps only a GridPoint — the scenario coordinates and the fitted
// model — per scenario. A thousand-scenario grid therefore streams through
// a CSV-shard sink with memory bounded by the scenarios in flight, not by
// the grid size.

// GridPoint is one scenario's distilled outcome in a streaming grid run:
// the coordinates, the kernel that was measured (after the flux dimension
// is applied) and the fitted Eq. 1/2 model. The raw sweep is emitted as
// rows and dropped.
type GridPoint struct {
	Scenario campaign.Scenario
	Kernel   Kernel
	Model    *ComponentModel
}

// StreamJob wraps one grid scenario as a bounded-memory campaign job: run
// the sweep, emit its rows to the campaign sink, fit the model, return
// only the GridPoint. The store keeps the sweep, and a hit refits it.
func StreamJob(base SweepConfig, sc campaign.Scenario) campaign.Job {
	return measureJob(sc.Key, jobHash("gridpoint", base, sc),
		func() (*SweepResult, error) {
			cfg, err := scenarioSweepConfig(base, sc)
			if err != nil {
				return nil, err
			}
			return RunSweep(cfg)
		},
		func(sw *SweepResult) (any, error) {
			cm, err := FitModels(sw)
			if err != nil {
				return nil, err
			}
			return GridPoint{Scenario: sc, Kernel: sw.Config.Kernel, Model: cm}, nil
		})
}

// StreamJobs expands a grid into one StreamJob per scenario.
func StreamJobs(base SweepConfig, g campaign.Grid) ([]campaign.Job, error) {
	scs, err := g.Scenarios()
	if err != nil {
		return nil, err
	}
	jobs := make([]campaign.Job, len(scs))
	for i, sc := range scs {
		jobs[i] = StreamJob(base, sc)
	}
	return jobs, nil
}

// StreamSweepGrid runs a scenario grid with streaming results: each
// scenario's telemetry rows go to cc.Sink (when set) and only the fitted
// GridPoints come back, in scenario order. With cc.Store set the grid is
// checkpointed per scenario: a resumed run re-executes only unfinished
// scenarios and replays the finished ones' rows from the store, so the
// sink output is identical to an uninterrupted run.
func StreamSweepGrid(ctx context.Context, cc campaign.Config, base SweepConfig, g campaign.Grid) ([]GridPoint, error) {
	jobs, err := StreamJobs(base, g)
	if err != nil {
		return nil, err
	}
	res, err := campaign.Run(ctx, cc, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]GridPoint, len(res))
	for i, r := range res {
		out[i] = r.Value.(GridPoint)
	}
	return out, nil
}
