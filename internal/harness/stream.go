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
// measures live and records its charges, and the rest are priced from the
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
// (programWorld). In each campaign.Run, the first member to run measures
// live and records the charge trace, and every member that runs after the
// recording is done prices it on its own machine (repriceSweep). A member
// that starts while the recording runs measures live too, unrecorded: on
// a second worker that costs one sweep where waiting would cost the rest
// of the recording plus a pricing. A member served from the store does
// none of this, so a group whose members all hit records nothing. When the
// recording member fails, the next member to run records in its place.
// The trace comes from the process-wide sweepTraces and goes back when the
// Run ends: no recording outlives its Run.
type sweepGroup struct {
	// recorded, priced and live count, over every Run, the members
	// measured live with a recording, those priced from one and those
	// measured live while another recorded.
	recorded, priced, live atomic.Int64
}

// sweepTraces keeps charge-trace buffers across Runs, as sweepScratches
// keeps arenas: a trace grows to its program's length once per process.
var sweepTraces freeList[platform.Trace]

// groupRun is one sweep group's state within one campaign.Run.
type groupRun struct {
	mu        sync.Mutex
	recording bool            // a member is recording into trace
	trace     *platform.Trace // nil until a member records
	points    []SweepPoint    // the recorded sweep's points; nil until one succeeds
}

// sweep measures one member's sweep within the Run of ctx.
func (g *sweepGroup) sweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	v, ok := campaign.Shared(ctx, g, func() (any, func()) {
		run := new(groupRun)
		return run, func() {
			if run.trace != nil {
				sweepTraces.put(run.trace)
			}
		}
	})
	if !ok {
		return RunSweep(cfg)
	}
	run := v.(*groupRun)
	run.mu.Lock()
	if run.points != nil {
		run.mu.Unlock()
		g.priced.Add(1)
		return repriceSweep(cfg, run.trace, run.points)
	}
	if run.recording {
		run.mu.Unlock()
		g.live.Add(1)
		return RunSweep(cfg)
	}
	run.recording = true
	if run.trace == nil {
		run.trace = sweepTraces.get()
	}
	run.mu.Unlock()
	g.recorded.Add(1)
	var res *SweepResult
	defer func() {
		// However the sweep ends, a panic included, the next member may
		// record; a successful one is published for pricing.
		run.mu.Lock()
		run.recording = false
		if res != nil {
			run.points = res.Points
		}
		run.mu.Unlock()
	}()
	res, err := runSweep(cfg, run.trace)
	return res, err
}

// repriceSweep prices a recorded single-rank sweep on cfg's machine: it
// replays the charges on a fresh Proc of that machine and reads each
// monitored call's wall time and PAPI_L2_DCM delta between the marks
// around it, as core.Record differences its snapshots. The points' rank,
// size and mode are the recording's.
func repriceSweep(cfg SweepConfig, trace *platform.Trace, recorded []SweepPoint) (*SweepResult, error) {
	w := cfg.World
	if err := w.Validate(); err != nil {
		return nil, err
	}
	proc := platform.NewProc(0, w.CPU, w.Cache, w.Seed)
	pts := slices.Clone(recorded)
	var wall, misses float64
	marks := 0
	trace.Replay(proc, func() {
		now, dcm := proc.Now(), float64(proc.Counters().L2DCM)
		if i := marks / 2; marks%2 == 0 {
			wall, misses = now, dcm
		} else if i < len(pts) {
			pts[i].WallUS, pts[i].Misses = now-wall, dcm-misses
		}
		marks++
	})
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
