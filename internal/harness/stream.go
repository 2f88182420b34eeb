package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/platform"
	"repro/internal/results/store"
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

// programKey names a sweep program: the sweep config with the machine
// (cache and CPU models), seed, scheduler and rank count set aside. A
// kernel charges by patch shape alone (TestSweepRowsIgnoreSeed,
// TestSweepRanksMatchRankZero), so one recording prices every sweep of a
// program.
type programKey string

// programOf returns cfg's program.
func programOf(cfg SweepConfig) programKey {
	w := serialWorld(cfg.World)
	w.Procs, w.Cache, w.CPU, w.Seed = 1, cache.Config{}, platform.CPUModel{}, 0
	cfg.World = w
	return programKey(jobHash("program", cfg))
}

// A recording is rank 0 of a sweep program, recorded dry: its charges,
// with no cache walked and no point priced.
type recording struct {
	recorded onceOK
	trace    *platform.Trace
	digest   uint64       // the trace's StreamDigest
	points   []SweepPoint // rank 0's points, whose size and mode pricing keeps
}

// record records cfg's rank 0 into r.
func (r *recording) record(cfg SweepConfig) error {
	res, err := runSweep(cfg, r.trace)
	if err != nil {
		return err
	}
	r.digest, r.points = r.trace.StreamDigest(), res.Points
	return nil
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

// measureSweep is the one way a sweep is measured: rank 0 of cfg's
// program, recorded dry on a one-rank serial world, walked through cfg's
// cache and priced on cfg's machine (priceSweep), copied to every rank.
// Within a campaign.Run, the first sweep of a program to run records it
// for all (one that finds the recording in progress waits for it, and
// records in its place if it fails), and walks are shared (sharedWalk); a
// sweep served from the store does none of this. Recordings go back to
// sweepTraces when the Run ends. Outside a Run, a sweep records, walks
// and prices on its own.
func measureSweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	v, ok := campaign.Shared(ctx, tallyKey{}, func() (any, func()) { return new(sweepTally), nil })
	if !ok {
		rec := recording{trace: sweepTraces.get()}
		defer sweepTraces.put(rec.trace)
		if err := rec.record(cfg); err != nil {
			return nil, err
		}
		walk := sweepWalks.get()
		defer sweepWalks.put(walk)
		if err := rec.trace.Walk(cfg.World.Cache, walk); err != nil {
			return nil, err
		}
		return priceSweep(cfg, rec.trace, walk, rec.points)
	}
	tally := v.(*sweepTally)
	v, _ = campaign.Shared(ctx, programOf(cfg), func() (any, func()) {
		rec := &recording{trace: sweepTraces.get()}
		return rec, func() { sweepTraces.put(rec.trace) }
	})
	rec := v.(*recording)
	err := rec.recorded.do(ctx, func() error {
		if err := rec.record(cfg); err != nil {
			return err
		}
		tally.recorded.Add(1)
		return nil
	})
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

// walkKey names the walks of one stream digest on one cache geometry.
type walkKey struct {
	digest uint64
	cache  cache.Config
}

// walkSet is a Run's walks under one walkKey: one per distinct stream
// sequence, which a digest alone does not tell apart.
type walkSet struct {
	mu    sync.Mutex
	walks []*walkEntry
}

// walkEntry is one walk of a Run, and the trace it was first asked for.
type walkEntry struct {
	walking onceOK
	trace   *platform.Trace
	walk    *platform.Walk
}

// sharedWalk returns a walk of trace's streams, whose StreamDigest is
// digest, on cache geometry cfg, shared by every sweep of the Run of ctx
// that needs it: a walk asked for by another trace is reused only when the
// two traces' streams are equal, element by element (SameStreams). Each
// walk made here counts in walked. A sweep that finds the walk in progress
// waits for it, and walks in its place if it fails. Walks go back to
// sweepWalks when the Run ends.
func sharedWalk(ctx context.Context, trace *platform.Trace, digest uint64, cfg cache.Config, walked *atomic.Int64) (*platform.Walk, error) {
	v, ok := campaign.Shared(ctx, walkKey{digest, cfg}, func() (any, func()) {
		set := new(walkSet)
		return set, func() {
			for _, w := range set.walks {
				sweepWalks.put(w.walk)
			}
		}
	})
	if !ok {
		return nil, fmt.Errorf("harness: a shared walk outside a campaign run")
	}
	set := v.(*walkSet)
	set.mu.Lock()
	var sw *walkEntry
	for _, w := range set.walks {
		if w.trace == trace || w.trace.SameStreams(trace) {
			sw = w
			break
		}
	}
	if sw == nil {
		sw = &walkEntry{trace: trace, walk: sweepWalks.get()}
		set.walks = append(set.walks, sw)
	}
	set.mu.Unlock()
	err := sw.walking.do(ctx, func() error {
		if err := trace.Walk(cfg, sw.walk); err != nil {
			return err
		}
		walked.Add(1)
		return nil
	})
	return sw.walk, err
}

// onceOK is work that concurrent callers need done once: the first caller
// does it, a caller that finds it in progress waits for it, and one that
// finds it failed does it again.
type onceOK struct {
	mu   sync.Mutex
	busy chan struct{} // closed when the work in progress ends; nil when none is
	done bool
}

// do returns nil once f has succeeded, in this call or in another, and f's
// error when this call ran f and it failed. A panic in f propagates to the
// caller that ran it and leaves the work undone.
func (o *onceOK) do(ctx context.Context, f func() error) error {
	for {
		o.mu.Lock()
		if o.done {
			o.mu.Unlock()
			return nil
		}
		if busy := o.busy; busy != nil {
			o.mu.Unlock()
			select {
			case <-busy:
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		o.busy = make(chan struct{})
		o.mu.Unlock()
		return o.run(f)
	}
}

// run runs f as the one caller doing the work, and publishes its outcome.
func (o *onceOK) run(f func() error) error {
	ok := false
	defer func() {
		o.mu.Lock()
		o.done = ok
		close(o.busy)
		o.busy = nil
		o.mu.Unlock()
	}()
	err := f()
	ok = err == nil
	return err
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
