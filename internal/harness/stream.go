package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/results/store"
)

// This file is the grid path. It never buffers a scenario's SweepResult:
// StreamSweepGrid emits each sweep's telemetry rows into the campaign sink
// and keeps only a GridPoint — the scenario coordinates and the fitted
// model — per scenario. Rows and results take memory by the scenarios in
// flight, not by the grid size, but each program's recording (21-43 MB at
// the default sizes) is held until the Run ends (measureSweep).

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
	return streamJob(gridHasher(base), base, sc)
}

// gridHasher is the job hash of base's grid points, base rendered once.
func gridHasher(base SweepConfig) store.Hasher {
	base.World = serialWorld(base.World)
	return jobHasher("gridpoint", base)
}

// streamJob is StreamJob, with base's hasher.
func streamJob(h store.Hasher, base SweepConfig, sc campaign.Scenario) campaign.Job {
	hashedSc := sc
	hashedSc.World = serialWorld(sc.World)
	return measureJob(sc.Key, h.Hash(hashedSc),
		func(ctx context.Context) (*SweepResult, error) {
			cfg, err := scenarioSweepConfig(base, sc)
			if err != nil {
				return nil, err
			}
			return measureSweep(ctx, cfg)
		},
		func(sw *SweepResult) (any, error) {
			cm, err := FitModels(sw)
			if err != nil {
				return nil, err
			}
			return GridPoint{Scenario: sc, Kernel: sw.Config.Kernel, Model: cm}, nil
		})
}

// StreamJobs expands a grid into one StreamJob per scenario. Scenarios
// that run one sweep program on different machines share its recording
// within a campaign.Run (measureSweep).
func StreamJobs(base SweepConfig, g campaign.Grid) ([]campaign.Job, error) {
	scs, err := g.Scenarios()
	if err != nil {
		return nil, err
	}
	h := gridHasher(base)
	jobs := make([]campaign.Job, len(scs))
	for i, sc := range scs {
		jobs[i] = streamJob(h, base, sc)
	}
	return jobs, nil
}

// program is what cfg records: its kernel, sizes and repetitions on one
// fixed machine, a one-rank serial world of mpi.DefaultConfig at seed 0.
// A kernel charges by patch shape alone (TestRepricedSweepMatchesLive,
// TestSweepRanksMatchRankZero), so one recording prices every sweep of a
// program on the sweep's own machine, and fails only for the whole program.
func program(cfg SweepConfig) SweepConfig {
	w := mpi.DefaultConfig()
	w.Procs, w.Seed = 1, 0
	return SweepConfig{Kernel: cfg.Kernel, Sizes: cfg.Sizes, Reps: cfg.Reps, World: w}
}

// programKey is the campaign.Shared key of a program's recording.
type programKey string

// A recording is rank 0 of a program, recorded dry: its charges, with no
// cache walked and no point priced.
type recording struct {
	trace  *platform.Trace
	digest uint64       // the trace's StreamDigest
	points []SweepPoint // rank 0's points, whose size and mode pricing keeps
}

// sweepTraces and sweepWalks keep charge traces and walks (a walk's miss
// counts) across sweeps and Runs, as sweepScratches keeps arenas: each
// grows to its program's size once per process.
var (
	sweepTraces freeList[platform.Trace]
	sweepWalks  freeList[platform.Walk]
)

// sweepTally counts what the sweeps of one campaign.Run did: the
// recordings made, the walks made and the sweeps priced.
type sweepTally struct{ recorded, walked, priced atomic.Int64 }

// tallyKey is the campaign.Shared key of a Run's sweepTally.
type tallyKey struct{}

// newTally makes a Run's sweepTally.
func newTally() (*sweepTally, error) { return new(sweepTally), nil }

// shareOnce returns the value the jobs of ctx's Run share under key, made
// once by mk (sync.OnceValues): the first job to ask makes it, and the
// others wait for it and take its outcome, an error or a panic included,
// so mk's outcome must be deterministic in key. When the Run ends, a value
// made without error goes to release, when release is not nil.
func shareOnce[T any](ctx context.Context, key any, mk func() (T, error), release func(T)) (T, error) {
	v, ok := campaign.Shared(ctx, key, func() (any, func()) {
		var made *T
		get := sync.OnceValues(func() (T, error) {
			v, err := mk()
			if err == nil {
				made = &v
			}
			return v, err
		})
		return get, func() {
			if made != nil && release != nil {
				release(*made)
			}
		}
	})
	if !ok {
		var zero T
		return zero, fmt.Errorf("harness: a sweep outside a campaign run")
	}
	return v.(func() (T, error))()
}

// measureSweep is the one way a sweep is measured, as a job of a
// campaign.Run: rank 0 of cfg's program, recorded dry, walked through
// cfg's cache (sharedWalk) and priced on cfg's machine (priceSweep), copied
// to every rank. The sweeps of a Run share one recording per program
// (shareOnce); one served from the store records nothing. Recordings go
// back to sweepTraces when the Run ends.
func measureSweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	tally, err := shareOnce(ctx, tallyKey{}, newTally, nil)
	if err != nil {
		return nil, err
	}
	prog := program(cfg)
	rec, err := shareOnce(ctx, programKey(jobHash("program", prog)), func() (*recording, error) {
		trace := sweepTraces.get()
		res, err := runSweep(prog, trace)
		if err != nil {
			return nil, err
		}
		tally.recorded.Add(1)
		return &recording{trace, trace.StreamDigest(), res.Points}, nil
	}, func(rec *recording) { sweepTraces.put(rec.trace) })
	if err != nil {
		return nil, err
	}
	walk, err := sharedWalk(ctx, rec.trace, rec.digest, cfg.World.Cache, &tally.walked)
	if err != nil {
		return nil, err
	}
	tally.priced.Add(1)
	return priceSweep(cfg, rec.trace, walk, rec.points)
}

// walkKey names the walk of one stream digest on one cache geometry.
type walkKey struct {
	digest uint64
	cache  cache.Config
}

// A keyedWalk is a Run's walk under a walkKey, and the trace it walked.
type keyedWalk struct {
	trace *platform.Trace
	walk  *platform.Walk
}

// sharedWalk returns a walk of trace's streams, whose StreamDigest is
// digest, on cache geometry cfg. The sweeps of ctx's Run share one walk
// per digest and geometry (shareOnce), but a digest does not tell streams
// apart: a trace whose streams differ from those of the trace the shared
// walk was made of (SameStreams) walks on its own. Each walk made here
// counts in walked. Shared walks go back to sweepWalks when the Run ends.
func sharedWalk(ctx context.Context, trace *platform.Trace, digest uint64, cfg cache.Config, walked *atomic.Int64) (*platform.Walk, error) {
	walk := func(w *platform.Walk) (*platform.Walk, error) {
		if err := trace.Walk(cfg, w); err != nil {
			return nil, fmt.Errorf("harness: cache %+v: %w", cfg, err)
		}
		walked.Add(1)
		return w, nil
	}
	kw, err := shareOnce(ctx, walkKey{digest, cfg}, func() (keyedWalk, error) {
		w, err := walk(sweepWalks.get())
		return keyedWalk{trace, w}, err
	}, func(kw keyedWalk) { sweepWalks.put(kw.walk) })
	if err != nil || kw.trace == trace || kw.trace.SameStreams(trace) {
		return kw.walk, err
	}
	return walk(new(platform.Walk))
}

// priceSweep prices rank 0's recorded sweep on cfg's machine, from walk,
// a walk of the recording's streams on cfg's cache: it applies the charges
// to a fresh Proc of that machine and reads each monitored call's wall
// time and PAPI_L2_DCM delta between the marks around it, as core.Record
// differences its snapshots. The points' size and mode are the
// recording's, and they come once per rank of cfg's world, in rank order.
func priceSweep(cfg SweepConfig, trace *platform.Trace, walk *platform.Walk, recorded []SweepPoint) (*SweepResult, error) {
	w := cfg.World
	if err := w.Validate(); err != nil {
		return nil, err
	}
	proc := platform.NewProc(0, w.CPU, w.Cache, w.Seed)
	pts := make([]SweepPoint, len(recorded), w.Procs*len(recorded))
	copy(pts, recorded)
	var wall, misses float64
	marks := 0
	err := trace.Price(proc, walk, func() {
		now, dcm := proc.Now(), float64(proc.Counters().L2DCM)
		if i := marks / 2; marks%2 == 0 {
			wall, misses = now, dcm
		} else if i < len(pts) {
			pts[i].WallUS, pts[i].Misses = now-wall, dcm-misses
		}
		marks++
	})
	if err != nil {
		return nil, err
	}
	if marks != 2*len(pts) {
		return nil, fmt.Errorf("harness: a sweep trace marks %d calls for %d points", marks/2, len(pts))
	}
	for r := 1; r < w.Procs; r++ {
		for _, p := range pts[:len(recorded)] {
			p.Rank = r
			pts = append(pts, p)
		}
	}
	return &SweepResult{Config: cfg, Points: pts}, nil
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
