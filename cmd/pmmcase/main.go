// Command pmmcase runs the paper's case study end to end on the simulated
// platform: the CCA component application (SAMR shock/interface simulation)
// with the PMM infrastructure interposed, printing the Fig. 3 FUNCTION
// SUMMARY and, optionally, the fitted Eq. 1/Eq. 2 performance models, the
// record dumps, and the cross-scenario trend report (-report) that fits
// model coefficients against cache size over a streamed grid.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/components"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// options is one invocation's flags, resolved.
type options struct {
	procs, steps, baseNx, baseNy, workers int
	seed                                  int64
	flux                                  components.FluxChoice
	models, records, cacheStudy, report   bool
	trendAxis                             harness.TrendAxis
	machineAxis                           campaign.Dimension
	sched                                 mpi.SchedulerMode
	rankCap                               int
	cache, owner                          string
	distrib                               bool
	ttl                                   time.Duration
	obs                                   obs.Outputs
}

// world puts -procs, -seed and -rankmode on a default world; the parallel
// schedulers change wall-clock time only, never results.
func (o *options) world(wc mpi.WorldConfig) mpi.WorldConfig {
	wc.Procs = o.procs
	wc.Seed = o.seed
	return wc.WithScheduler(o.sched, o.rankCap)
}

// sweep is a kernel's default sweep on that world.
func (o *options) sweep(k harness.Kernel) harness.SweepConfig {
	cfg := harness.DefaultSweep(k)
	cfg.World = o.world(cfg.World)
	return cfg
}

// resolveFlags parses the command line and resolves every flag value
// before anything starts: a bad value costs no simulation, prints no
// profile and creates no file.
func resolveFlags(args []string) (*options, error) {
	o := &options{}
	var flux, axis, rankmode string
	fs := flag.NewFlagSet("pmmcase", flag.ExitOnError)
	fs.IntVar(&o.procs, "procs", 3, "number of simulated ranks")
	fs.IntVar(&o.steps, "steps", 0, "coarse time steps (0 = default)")
	fs.IntVar(&o.baseNx, "nx", 0, "base grid x cells (0 = default)")
	fs.IntVar(&o.baseNy, "ny", 0, "base grid y cells (0 = default)")
	fs.StringVar(&flux, "flux", "godunov", "flux implementation: godunov | efm")
	fs.BoolVar(&o.models, "models", false, "run the kernel sweeps and print Eq. 1/2 fits")
	fs.BoolVar(&o.records, "records", false, "dump the Mastermind records (CSV)")
	fs.BoolVar(&o.cacheStudy, "cachestudy", false, "refit the States model under 128kB/512kB/1MB caches and fit the cache-aware T(Q,DCM) model (paper Section 6 outlook)")
	fs.BoolVar(&o.report, "report", false, "stream a machine-axis x flux grid through an aggregating sink and print the coefficient-vs-axis trend report")
	fs.StringVar(&axis, "axis", "cache_kb", "trend axis for -report: cache_kb | cpu_clock")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.workers, "workers", 0, "campaign workers for -models/-cachestudy (0 = all CPUs)")
	fs.StringVar(&rankmode, "rankmode", "serial", "rank scheduler: serial | par (conservative) | opt (optimistic/Time Warp); par<N> or opt<N> runs at most N ranks at once. Output is bit-identical under every value")
	fs.StringVar(&o.cache, "cache", "", "checkpoint store directory for the campaign subcommands (empty = no store)")
	fs.BoolVar(&o.distrib, "distributed", false, "partition campaign jobs with other -distributed processes sharing the same -cache store via lease files (no coordinator)")
	fs.StringVar(&o.owner, "owner", "", "stable worker identity for -distributed lease and audit files (default: host-pid)")
	fs.DurationVar(&o.ttl, "leasettl", 0, "lease heartbeat expiry for -distributed; a crashed worker's jobs are stolen after this (0 = 30s default)")
	fs.StringVar(&o.obs.Trace, "trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto); output bytes are unchanged")
	fs.StringVar(&o.obs.MetricsDump, "metricsdump", "", "write the final metrics registry in text exposition format to this file")
	fs.StringVar(&o.obs.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof); output bytes are unchanged")
	fs.StringVar(&o.obs.MemProfile, "memprofile", "", "write an allocation profile to this file when the run ends (go tool pprof -sample_index=alloc_space); output bytes are unchanged")
	fs.Parse(args) // ExitOnError: a syntax error has already exited with status 2

	switch flux {
	case "godunov":
		o.flux = components.Godunov
	case "efm":
		o.flux = components.EFM
	default:
		return nil, fmt.Errorf("unknown -flux %q", flux)
	}
	var err error
	if o.trendAxis, err = harness.TrendAxisNamed(axis); err != nil {
		return nil, fmt.Errorf("-axis: %w", err)
	}
	if o.machineAxis, err = o.trendAxis.Dimension(o.trendAxis.Defaults); err != nil {
		return nil, err
	}
	if o.sched, o.rankCap, err = mpi.ParseSched(rankmode); err != nil {
		return nil, fmt.Errorf("-rankmode: %w", err)
	}
	if o.distrib && o.cache == "" {
		return nil, fmt.Errorf("-distributed needs a shared checkpoint store; pass -cache <dir>")
	}
	// Of what Validate checks, -procs is all the flags set on a world; the
	// study grids sweep fixed values.
	if err := o.world(mpi.DefaultConfig()).Validate(); err != nil {
		return nil, fmt.Errorf("-procs: %w", err)
	}
	return o, nil
}

func main() {
	o, err := resolveFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the case study and the requested studies, printing to w.
// It has one way out: the lease manager is closed and the trace, the
// metrics dump and the profiles are written whether the run succeeded or
// failed — a trace of a broken run is exactly what the post-mortem wants.
func run(o *options, w io.Writer) (err error) {
	stopObs, err := o.obs.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopObs()) }()

	cfg := harness.DefaultCaseStudy()
	cfg.World = o.world(cfg.World)
	if o.steps > 0 {
		cfg.App.Driver.Steps = o.steps
	}
	if o.baseNx > 0 {
		cfg.App.Mesh.BaseNx = o.baseNx
	}
	if o.baseNy > 0 {
		cfg.App.Mesh.BaseNy = o.baseNy
	}
	cfg.App.Flux = o.flux

	res, err := harness.RunCaseStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "case study: %d ranks, %d coarse steps, t=%.4f, flux=%s\n",
		o.procs, res.StepsTaken, res.SimTime, cfg.App.Flux)
	for lev, st := range res.Stats {
		fmt.Fprintf(w, "  level %d: %3d patches, %7d cells\n", lev, st.Patches, st.Cells)
	}
	fmt.Fprintln(w)
	if err := res.WriteProfile(w); err != nil {
		return err
	}

	if o.records {
		fmt.Fprintln(w)
		for _, rec := range res.Records[0] {
			if err := rec.WriteCSV(w); err != nil {
				return err
			}
		}
	}

	cc := campaign.Config{Workers: o.workers}
	var mgr *lease.Manager
	switch {
	case o.distrib:
		cc, mgr, err = harness.DistributedConfig(cc, o.cache, o.owner, lease.Options{TTL: o.ttl})
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, mgr.Close()) }()
	case o.cache != "":
		st, err := store.Open(o.cache)
		if err != nil {
			return err
		}
		cc.Store = st
	}

	if o.cacheStudy {
		fmt.Fprintln(w)
		scfg := o.sweep(harness.KernelStates)
		scfg.Reps = 2
		// The cache-aware fit reads the 512 kB point's rows as the study
		// streams (or replays) them, instead of simulating that point again.
		rows := results.NewMemorySink()
		study := cc
		study.Sink = rows
		pts, err := harness.RunCacheStudy(context.Background(), study, scfg, []int{128, 512, 1024})
		if err != nil {
			return err
		}
		if err := harness.WriteCacheStudy(w, harness.KernelStates, pts); err != nil {
			return err
		}
		ml, r2Aware, r2Plain, err := harness.CacheAwareFit(rows.Rows(pts[1].Scenario.Key))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cache-aware model (512 kB): T = %s\n", ml)
		fmt.Fprintf(w, "  R2 with DCM folded in: %.4f   (Q-only linear: %.4f)\n", r2Aware, r2Plain)
	}

	if o.report {
		fmt.Fprintln(w)
		// A reduced States/EFM sweep keeps the grid quick; the campaign
		// streams every scenario's rows into an aggregating sink, so no
		// per-scenario SweepResult survives its job. The -axis flag picks
		// the machine dimension the grid sweeps and the trend fits against.
		base := o.sweep(harness.KernelStates)
		base.Sizes = base.Sizes[:8]
		base.Reps = 2
		grid := campaign.Grid{
			Base:         base.World,
			Axes:         []campaign.Dimension{o.machineAxis, campaign.FluxAxis("states", "efm")},
			Replications: 2,
			BaseSeed:     o.seed,
		}
		agg := results.NewAggSink()
		ccr := cc
		ccr.Sink = agg
		pts, err := harness.StreamSweepGrid(context.Background(), ccr, base, grid)
		if err != nil {
			return err
		}
		reports, err := harness.BuildTrends(pts, o.trendAxis)
		if err != nil {
			return err
		}
		if err := harness.WriteTrendReport(w, reports); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nstreamed aggregates over %d scenarios (wall_us per scenario):\n", len(pts))
		for _, key := range agg.Keys() {
			if st, ok := agg.Stat(key, "wall_us"); ok {
				fmt.Fprintf(w, "  %-28s n=%4d  mean=%10.2f  min=%10.2f  max=%10.2f\n",
					key, st.N, st.Mean, st.Min, st.Max)
			}
		}
	}

	if o.models {
		fmt.Fprintln(w)
		kernels := []harness.Kernel{harness.KernelStates, harness.KernelGodunov, harness.KernelEFM}
		jobs := make([]campaign.Job, len(kernels))
		for i, k := range kernels {
			jobs[i] = harness.SweepJob("sweep/"+string(k), o.sweep(k))
		}
		res, err := campaign.Run(context.Background(), cc, jobs)
		if err != nil {
			return err
		}
		for _, r := range res {
			cm, err := harness.FitModels(r.Value.(*harness.SweepResult))
			if err != nil {
				return err
			}
			if err := harness.WriteModelReport(w, cm); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}

	if mgr != nil {
		// This process's share of the partitioned campaigns; every other
		// job was replayed from the shared store, so the report above is
		// byte-identical to a single-process run.
		fmt.Fprintf(w, "\ndistributed: owner %s executed %d job(s)\n", mgr.Owner(), len(mgr.Executed()))
	}
	return nil
}
