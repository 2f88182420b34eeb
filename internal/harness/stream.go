package harness

import (
	"context"
	"fmt"
	"slices"
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
	return streamJob(gridHasher(base), base, sc, nil)
}

// gridHasher is the job hash of base's grid points, base rendered once.
func gridHasher(base SweepConfig) store.Hasher {
	base.World = serialWorld(base.World)
	return jobHasher("gridpoint", base)
}

// streamJob is StreamJob, with base's hasher, for a member of group, or
// for no group when group is nil. A group changes how the sweep is
// measured, never the job's key, hash, payload or rows.
func streamJob(h store.Hasher, base SweepConfig, sc campaign.Scenario, group *sweepGroup) campaign.Job {
	hashedSc := sc
	hashedSc.World = serialWorld(sc.World)
	return measureJob(sc.Key, h.Hash(hashedSc),
		func(ctx context.Context) (*SweepResult, error) {
			cfg, err := scenarioSweepConfig(base, sc)
			if err != nil {
				return nil, err
			}
			if group == nil {
				return RunSweep(cfg)
			}
			return group.sweep(ctx, cfg)
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
// that run the same single-rank program on different machines form a
// sweep group (sweepGroup): in each campaign.Run, the first of them to run
// records the program's charges, and every member is priced from that
// recording.
func StreamJobs(base SweepConfig, g campaign.Grid) ([]campaign.Job, error) {
	jobs, _, err := streamJobs(base, g)
	return jobs, err
}

// streamJobs is StreamJobs, also returning each job's group (nil for a job
// in none).
func streamJobs(base SweepConfig, g campaign.Grid) ([]campaign.Job, []*sweepGroup, error) {
	scs, err := g.Scenarios()
	if err != nil {
		return nil, nil, err
	}
	// A scenario changes only the world and the kernel of the base config
	// (scenarioSweepConfig), so a program is named by those two.
	type program struct {
		kernel Kernel
		world  mpi.WorldConfig
	}
	programs := make([]program, len(scs))
	members := map[program]int{}
	for i, sc := range scs {
		if cfg, err := scenarioSweepConfig(base, sc); err == nil && cfg.World.Procs == 1 {
			programs[i] = program{cfg.Kernel, programWorld(cfg.World)}
			members[programs[i]]++
		}
	}
	h := gridHasher(base)
	groups := make([]*sweepGroup, len(scs))
	byProgram := map[program]*sweepGroup{}
	jobs := make([]campaign.Job, len(scs))
	for i, sc := range scs {
		if p := programs[i]; members[p] > 1 {
			if byProgram[p] == nil {
				byProgram[p] = new(sweepGroup)
			}
			groups[i] = byProgram[p]
		}
		jobs[i] = streamJob(h, base, sc, groups[i])
	}
	return jobs, groups, nil
}

// programWorld sets aside what a single-rank sweep's charges do not depend
// on: the machine (cache and CPU models), the seed and the scheduler.
// Sweeps that differ only there issue the same charges in the same order —
// a kernel charges by patch shape and never by field data
// (TestSweepRowsIgnoreSeed) — so one recording prices them all.
func programWorld(w mpi.WorldConfig) mpi.WorldConfig {
	w = serialWorld(w)
	w.Cache, w.CPU, w.Seed = cache.Config{}, platform.CPUModel{}, 0
	return w
}

// sweepGroup is the grid scenarios that run one single-rank sweep program
// (programWorld). In each campaign.Run, the first member to run records
// the program dry: its charges, with no cache walked and no point priced.
// Every member, that one included, is then priced on its own machine from
// the recording (priceSweep), with a walk of the recording's streams
// through its own cache (sharedWalk). A member that finds the recording in
// progress waits for it, and records in its place if it fails. A member
// served from the store does none of this, so a group whose members all
// hit records nothing. The trace comes from the process-wide sweepTraces
// and goes back when the Run ends: no recording outlives its Run.
type sweepGroup struct {
	// recorded, walked and priced count, over every Run, the recordings
	// the group's members made, the walks they made and the members
	// priced.
	recorded, walked, priced atomic.Int64
}

// sweepTraces and sweepWalks keep charge traces and walks (a walk's miss
// counts) across Runs, as sweepScratches keeps arenas: each grows to its
// program's size once per process.
var (
	sweepTraces freeList[platform.Trace]
	sweepWalks  freeList[platform.Walk]
)

// groupRun is one sweep group's state within one campaign.Run.
type groupRun struct {
	recording onceOK
	trace     *platform.Trace // the recording, once a member has made it
	digest    uint64          // the recording's StreamDigest
	points    []SweepPoint    // its points, whose rank, size and mode pricing keeps
}

// sweep measures one member's sweep within the Run of ctx.
func (g *sweepGroup) sweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	v, ok := campaign.Shared(ctx, g, func() (any, func()) {
		run := &groupRun{trace: sweepTraces.get()}
		return run, func() { sweepTraces.put(run.trace) }
	})
	if !ok {
		return RunSweep(cfg)
	}
	run := v.(*groupRun)
	err := run.recording.do(ctx, func() error {
		res, err := runSweep(cfg, run.trace)
		if err != nil {
			return err
		}
		run.digest, run.points = run.trace.StreamDigest(), res.Points
		g.recorded.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	walk, err := sharedWalk(ctx, run.trace, run.digest, cfg.World.Cache, &g.walked)
	if err != nil {
		return nil, err
	}
	g.priced.Add(1)
	return priceSweep(cfg, run.trace, walk, run.points)
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
// digest, on cache geometry cfg, shared by every member of the Run of ctx
// that needs it: a walk asked for by another trace is reused only when the
// two traces' streams are equal, element by element (SameStreams). Each
// walk made here counts in walked. A member that finds the walk in progress
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
		walked.Add(1)
		return trace.Walk(cfg, sw.walk)
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

// priceSweep prices a recorded single-rank sweep on cfg's machine, from
// walk, a walk of the recording's streams on cfg's cache: it applies the
// charges to a fresh Proc of that machine and reads each monitored call's
// wall time and PAPI_L2_DCM delta between the marks around it, as
// core.Record differences its snapshots. The points' rank, size and mode
// are the recording's.
func priceSweep(cfg SweepConfig, trace *platform.Trace, walk *platform.Walk, recorded []SweepPoint) (*SweepResult, error) {
	w := cfg.World
	if err := w.Validate(); err != nil {
		return nil, err
	}
	proc := platform.NewProc(0, w.CPU, w.Cache, w.Seed)
	pts := slices.Clone(recorded)
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
