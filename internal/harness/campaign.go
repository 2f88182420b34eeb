package harness

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/results"
)

// This file adapts the experiment drivers to the campaign engine: every
// sweep and case study becomes a campaign.Job owning its own simulated
// machine, so the paper's whole evaluation — three kernel sweeps, the case
// study, the cache study — runs as one parallel job graph. Worker count
// never changes results: each job's world draws its randomness from its
// own config seed.
//
// Every job is a measurement job (measureJob): the checkpoint store keeps
// what the simulator measured — a *SweepResult or a *CaseStudyResult —
// and nothing derived from it. Fitted models and rendered figures are
// recomputed from the measurement on every run, so they can never be
// stale. Measurement jobs stream their telemetry rows to the campaign sink
// (campaign.Emit), both live and when replayed from the store.

// measurement is a simulator result the store keeps: it flattens to the
// telemetry rows its job emits.
type measurement interface {
	Rows() []results.Row
}

// emitRows streams rows to the ambient campaign sink under key.
func emitRows(ctx context.Context, key string, rows []results.Row) error {
	for _, row := range rows {
		if err := campaign.Emit(ctx, key, row); err != nil {
			return err
		}
	}
	return nil
}

// measureJob is the one checkpointable job shape: Run measures, derives
// the job's value and emits the measurement's rows; the store keeps the
// measurement itself, and a hit decodes it, derives the value and replays
// the rows. The value is derived before any row is emitted, so a failed
// derivation over a stored measurement is a plain cache miss; a replay
// that fails partway is wrapped with campaign.ErrReplay, failing the job
// rather than re-running it into rows already replayed.
func measureJob[M measurement](key, hash string, measure func(context.Context) (M, error), value func(M) (any, error)) campaign.Job {
	// measured hands the measurement from Run to Encode (the campaign
	// calls them in turn on one worker) without making it the job's value.
	var measured M
	return campaign.Job{
		Key:  key,
		Hash: hash,
		Encode: func(any) ([]byte, error) {
			data, err := encodeGob(measured)
			var zero M
			measured = zero
			return data, err
		},
		Decode: func(ctx context.Context, data []byte) (any, error) {
			m, err := decodeGob[M](data)
			if err != nil {
				return nil, err
			}
			v, err := value(m)
			if err != nil {
				return nil, err
			}
			if err := emitRows(ctx, key, m.Rows()); err != nil {
				return nil, fmt.Errorf("%w: %w", campaign.ErrReplay, err)
			}
			return v, nil
		},
		Run: func(ctx context.Context, _ map[string]any) (any, error) {
			m, err := measure(ctx)
			if err != nil {
				return nil, err
			}
			v, err := value(m)
			if err != nil {
				return nil, err
			}
			if err := emitRows(ctx, key, m.Rows()); err != nil {
				return nil, err
			}
			measured = m
			return v, nil
		},
	}
}

// itself is the value of a job whose value is its measurement.
func itself[M measurement](m M) (any, error) { return m, nil }

// SweepJob measures cfg's sweep (measureSweep) as a checkpointable
// campaign job under the given key, emitting its rows to the campaign sink.
func SweepJob(key string, cfg SweepConfig) campaign.Job {
	hashed := cfg
	hashed.World = serialWorld(cfg.World)
	return measureJob(key, jobHash("sweep", hashed),
		func(ctx context.Context) (*SweepResult, error) { return measureSweep(ctx, cfg) }, itself[*SweepResult])
}

// CaseStudyJob wraps RunCaseStudy as a checkpointable campaign job under
// the given key, emitting the FUNCTION SUMMARY rows to the campaign sink.
func CaseStudyJob(key string, cfg CaseStudyConfig) campaign.Job {
	hashed := cfg
	hashed.World = serialWorld(cfg.World)
	return measureJob(key, jobHash("case", hashed),
		func(context.Context) (*CaseStudyResult, error) { return RunCaseStudy(cfg) }, itself[*CaseStudyResult])
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
