// Command pmmcase runs the paper's case study end to end on the simulated
// platform: the CCA component application (SAMR shock/interface simulation)
// with the PMM infrastructure interposed, printing the Fig. 3 FUNCTION
// SUMMARY and, optionally, the fitted Eq. 1/Eq. 2 performance models, the
// record dumps, and the cross-scenario trend report (-report) that fits
// model coefficients against cache size over a streamed grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/components"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

func main() {
	var (
		procs    = flag.Int("procs", 3, "number of simulated ranks")
		steps    = flag.Int("steps", 0, "coarse time steps (0 = default)")
		baseNx   = flag.Int("nx", 0, "base grid x cells (0 = default)")
		baseNy   = flag.Int("ny", 0, "base grid y cells (0 = default)")
		flux     = flag.String("flux", "godunov", "flux implementation: godunov | efm")
		models   = flag.Bool("models", false, "run the kernel sweeps and print Eq. 1/2 fits")
		records  = flag.Bool("records", false, "dump the Mastermind records (CSV)")
		cacheSt  = flag.Bool("cachestudy", false, "refit the States model under 128kB/512kB/1MB caches and fit the cache-aware T(Q,DCM) model (paper Section 6 outlook)")
		report   = flag.Bool("report", false, "stream a machine-axis x flux grid through an aggregating sink and print the coefficient-vs-axis trend report")
		axis     = flag.String("axis", "cache_kb", "trend axis for -report: cache_kb | cpu_clock")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 0, "campaign workers for -models/-cachestudy (0 = all CPUs)")
		rankmode = flag.String("rankmode", "serial", "rank scheduler: serial | par (conservative) | opt (optimistic/Time Warp); par<N> or opt<N> runs at most N ranks at once. Output is bit-identical under every value")
		cache    = flag.String("cache", "", "checkpoint store directory for the campaign subcommands (empty = no store)")
		distrib  = flag.Bool("distributed", false, "partition campaign jobs with other -distributed processes sharing the same -cache store via lease files (no coordinator)")
		owner    = flag.String("owner", "", "stable worker identity for -distributed lease and audit files (default: host-pid)")
		ttl      = flag.Duration("leasettl", 0, "lease heartbeat expiry for -distributed; a crashed worker's jobs are stolen after this (0 = 30s default)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto); output bytes are unchanged")
		metDump  = flag.String("metricsdump", "", "write the final metrics registry in text exposition format to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof); output bytes are unchanged")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file when the run ends (go tool pprof -sample_index=alloc_space); output bytes are unchanged")
	)
	flag.Parse()
	// Every flag is resolved before the case study runs: a bad value costs
	// no simulation and prints no profile.
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	trendAxis, err := harness.TrendAxisNamed(*axis)
	if err != nil {
		usage(fmt.Errorf("-axis: %w", err))
	}
	machineAxis, err := trendAxis.Dimension(trendAxis.Defaults)
	if err != nil {
		usage(err)
	}
	sched, rankCap, err := mpi.ParseSched(*rankmode)
	if err != nil {
		usage(fmt.Errorf("-rankmode: %w", err))
	}
	if *distrib && *cache == "" {
		usage(fmt.Errorf("-distributed needs a shared checkpoint store; pass -cache <dir>"))
	}
	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		usage(err)
	}

	// Observation is write-only: everything printed below is byte-identical
	// with or without these flags. The observer must be live before any
	// world, store or lease manager is constructed.
	var observer *obs.Observer
	if *traceOut != "" || *metDump != "" {
		observer = obs.New(obs.Options{})
		obs.Enable(observer)
		defer obs.Disable()
	}

	// applySched maps -rankmode onto a world: the parallel schedulers
	// change wall-clock time only, never results.
	applySched := func(w *mpi.WorldConfig) {
		*w = w.WithScheduler(sched, rankCap)
	}

	cfg := harness.DefaultCaseStudy()
	cfg.World.Procs = *procs
	cfg.World.Seed = *seed
	applySched(&cfg.World)
	if *steps > 0 {
		cfg.App.Driver.Steps = *steps
	}
	if *baseNx > 0 {
		cfg.App.Mesh.BaseNx = *baseNx
	}
	if *baseNy > 0 {
		cfg.App.Mesh.BaseNy = *baseNy
	}
	switch *flux {
	case "godunov":
		cfg.App.Flux = components.Godunov
	case "efm":
		cfg.App.Flux = components.EFM
	default:
		usage(fmt.Errorf("unknown -flux %q", *flux))
	}

	res, err := harness.RunCaseStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("case study: %d ranks, %d coarse steps, t=%.4f, flux=%s\n",
		*procs, res.StepsTaken, res.SimTime, cfg.App.Flux)
	for lev, st := range res.Stats {
		fmt.Printf("  level %d: %3d patches, %7d cells\n", lev, st.Patches, st.Cells)
	}
	fmt.Println()
	if err := res.WriteProfile(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *records {
		fmt.Println()
		for _, rec := range res.Records[0] {
			if err := rec.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	cc := campaign.Config{Workers: *workers}
	var mgr *lease.Manager
	switch {
	case *distrib:
		var err error
		cc, mgr, err = harness.DistributedConfig(cc, *cache, *owner, lease.Options{TTL: *ttl})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer mgr.Close()
	case *cache != "":
		st, err := store.Open(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cc.Store = st
	}

	if *cacheSt {
		fmt.Println()
		scfg := harness.DefaultSweep(harness.KernelStates)
		scfg.World.Procs = *procs
		scfg.World.Seed = *seed
		applySched(&scfg.World)
		scfg.Reps = 2
		// The cache-aware fit reads the 512 kB point's rows as the study
		// streams (or replays) them, instead of simulating that point again.
		rows := results.NewMemorySink()
		study := cc
		study.Sink = rows
		pts, err := harness.RunCacheStudy(context.Background(), study, scfg, []int{128, 512, 1024})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := harness.WriteCacheStudy(os.Stdout, harness.KernelStates, pts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ml, r2Aware, r2Plain, err := harness.CacheAwareFit(rows.Rows(pts[1].Scenario.Key))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("cache-aware model (512 kB): T = %s\n", ml)
		fmt.Printf("  R2 with DCM folded in: %.4f   (Q-only linear: %.4f)\n", r2Aware, r2Plain)
	}

	if *report {
		fmt.Println()
		// A reduced States/EFM sweep keeps the grid quick; the campaign
		// streams every scenario's rows into an aggregating sink, so no
		// per-scenario SweepResult survives its job. The -axis flag picks
		// the machine dimension the grid sweeps and the trend fits against.
		base := harness.DefaultSweep(harness.KernelStates)
		base.World.Procs = *procs
		base.World.Seed = *seed
		applySched(&base.World)
		base.Sizes = base.Sizes[:8]
		base.Reps = 2
		grid := campaign.Grid{
			Base:         base.World,
			Axes:         []campaign.Dimension{machineAxis, campaign.FluxAxis("states", "efm")},
			Replications: 2,
			BaseSeed:     *seed,
		}
		agg := results.NewAggSink()
		ccr := cc
		ccr.Sink = agg
		pts, err := harness.StreamSweepGrid(context.Background(), ccr, base, grid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reports, err := harness.BuildTrends(pts, trendAxis)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := harness.WriteTrendReport(os.Stdout, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nstreamed aggregates over %d scenarios (wall_us per scenario):\n", len(pts))
		for _, key := range agg.Keys() {
			if st, ok := agg.Stat(key, "wall_us"); ok {
				fmt.Printf("  %-28s n=%4d  mean=%10.2f  min=%10.2f  max=%10.2f\n",
					key, st.N, st.Mean, st.Min, st.Max)
			}
		}
	}

	if *models {
		fmt.Println()
		kernels := []harness.Kernel{harness.KernelStates, harness.KernelGodunov, harness.KernelEFM}
		jobs := make([]campaign.Job, len(kernels))
		for i, k := range kernels {
			cfg := harness.DefaultSweep(k)
			cfg.World.Procs = *procs
			cfg.World.Seed = *seed
			applySched(&cfg.World)
			jobs[i] = harness.SweepJob("sweep/"+string(k), cfg)
		}
		res, err := campaign.Run(context.Background(), cc, jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range res {
			cm, err := harness.FitModels(r.Value.(*harness.SweepResult))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := harness.WriteModelReport(os.Stdout, cm); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}

	if mgr != nil {
		// This process's share of the partitioned campaigns; every other
		// job was replayed from the shared store, so the report above is
		// byte-identical to a single-process run.
		fmt.Printf("\ndistributed: owner %s executed %d job(s)\n", mgr.Owner(), len(mgr.Executed()))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = observer.Tracer().WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metDump != "" {
		if err := observer.Metrics().DumpFile(*metDump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
