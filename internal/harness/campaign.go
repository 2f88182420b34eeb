package harness

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/results"
)

// This file adapts the experiment drivers to the campaign engine: every
// sweep, case study and model fit becomes a campaign.Job owning its own
// simulated machine, so the paper's whole evaluation — three kernel
// sweeps, the case study, the cache study — runs as one parallel job
// graph. Worker count never changes results: each job's world draws its
// randomness from its own config seed.
//
// Every job carries a checkpoint hash plus encode/decode hooks, so a
// campaign.Config with a Store resumes an interrupted run without
// re-executing finished jobs; and measurement jobs stream their telemetry
// rows to the campaign sink (campaign.Emit), both live and when replayed
// from the store.

// emitRows streams rows to the ambient campaign sink under key.
func emitRows(ctx context.Context, key string, rows []results.Row) error {
	for _, row := range rows {
		if err := campaign.Emit(ctx, key, row); err != nil {
			return err
		}
	}
	return nil
}

// replayRows is emitRows for Decode hooks: a failure is wrapped with
// campaign.ErrReplay so the campaign fails the job loudly instead of
// re-running it and duplicating the rows already replayed into the sink.
func replayRows(ctx context.Context, key string, rows []results.Row) error {
	if err := emitRows(ctx, key, rows); err != nil {
		return fmt.Errorf("%w: %w", campaign.ErrReplay, err)
	}
	return nil
}

// SweepJob wraps RunSweep as a checkpointable campaign job under the given
// key, emitting the sweep's telemetry rows to the campaign sink.
func SweepJob(key string, cfg SweepConfig) campaign.Job {
	return campaign.Job{
		Key:    key,
		Hash:   jobHash("sweep", cfg),
		Encode: encodeGob,
		Decode: func(ctx context.Context, data []byte) (any, error) {
			sw, err := decodeGob[*SweepResult](data)
			if err != nil {
				return nil, err
			}
			return sw, replayRows(ctx, key, sw.Rows())
		},
		Run: func(ctx context.Context, _ map[string]any) (any, error) {
			sw, err := RunSweep(cfg)
			if err != nil {
				return nil, err
			}
			return sw, emitRows(ctx, key, sw.Rows())
		},
	}
}

// CaseStudyJob wraps RunCaseStudy as a checkpointable campaign job under
// the given key, emitting the FUNCTION SUMMARY rows to the campaign sink.
func CaseStudyJob(key string, cfg CaseStudyConfig) campaign.Job {
	return campaign.Job{
		Key:    key,
		Hash:   jobHash("case", cfg),
		Encode: encodeGob,
		Decode: func(ctx context.Context, data []byte) (any, error) {
			res, err := decodeGob[*CaseStudyResult](data)
			if err != nil {
				return nil, err
			}
			return res, replayRows(ctx, key, res.Rows())
		},
		Run: func(ctx context.Context, _ map[string]any) (any, error) {
			res, err := RunCaseStudy(cfg)
			if err != nil {
				return nil, err
			}
			return res, emitRows(ctx, key, res.Rows())
		},
	}
}

// ModelJob fits Eq. 1/2 models to the sweep produced by the job named
// sweepKey. The sweep's config makes the fit checkpointable: the fit is a
// pure function of the sweep, which is itself a pure function of cfg.
func ModelJob(key, sweepKey string, cfg SweepConfig) campaign.Job {
	return campaign.Job{Key: key, After: []string{sweepKey},
		Hash:   jobHash("model", cfg),
		Encode: encodeGob,
		Decode: func(_ context.Context, data []byte) (any, error) {
			return decodeGob[*ComponentModel](data)
		},
		Run: func(_ context.Context, deps map[string]any) (any, error) {
			return FitModels(deps[sweepKey].(*SweepResult))
		}}
}

// scenarioSweepConfig specializes the base sweep to one grid scenario: the
// scenario's world, plus its flux-axis coordinate, which selects the
// measured kernel ("godunov", "efm", "states"; an absent axis keeps the
// base kernel).
func scenarioSweepConfig(base SweepConfig, sc campaign.Scenario) (SweepConfig, error) {
	cfg := base
	cfg.World = sc.World
	switch flux := sc.Label(campaign.AxisFlux); flux {
	case "":
	case "godunov":
		cfg.Kernel = KernelGodunov
	case "efm":
		cfg.Kernel = KernelEFM
	case "states":
		cfg.Kernel = KernelStates
	default:
		return cfg, fmt.Errorf("harness: unknown flux dimension %q in scenario %q", flux, sc.Key)
	}
	return cfg, nil
}
