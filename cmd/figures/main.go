// Command figures regenerates the data behind every figure of the paper's
// evaluation (Section 5):
//
//	fig1  density snapshot of the shock/interface run        -> fig1.pgm
//	fig2  component assembly wiring diagram                  -> fig2.dot
//	fig3  FUNCTION SUMMARY (mean) profile                    -> fig3.txt
//	fig4  States sequential vs strided scatter               -> fig4.csv
//	fig5  strided/sequential ratio vs array size             -> fig5.csv
//	fig6  States mean/sigma vs Q with fits (Eq. 1/2)         -> fig6.csv fig6_model.txt
//	fig7  GodunovFlux mean/sigma vs Q with fits              -> fig7.csv fig7_model.txt
//	fig8  EFMFlux mean/sigma vs Q with fits                  -> fig8.csv fig8_model.txt
//	fig9  per-level ghost-update communication times         -> fig9.csv
//	fig10 composite-model dual graph + assembly optimization -> fig10.dot fig10.txt
//	trend coefficient-vs-cache-size grid study (Section 6)   -> trend.csv trend.txt
//
// Each fig*_model.txt ends with its sweep's cache-aware model T(Q, DCM),
// the other half of the Section 6 study: the trend grid moves the cache,
// the cache-aware fit reads the misses one cache recorded. Every sweep
// study runs here; cmd/pmmcase runs the case study alone.
//
// The whole regeneration is submitted as one campaign: the case study, the
// kernel sweeps and the cache-size grid scenarios are independent
// simulated-machine jobs, and the figure jobs that fit and render their
// results hang off them in a dependency graph executed by a worker pool
// (-workers). Output files are byte-identical for a fixed seed regardless
// of worker count.
//
// Two streaming facilities ride on the campaign: every measurement job
// emits its telemetry rows into a CSV-shard sink under <out>/rows/, and
// checkpoints what it measured into a content-addressed store (-cache,
// default <out>/.cache), so an interrupted regeneration resumed with the
// same flags re-runs zero completed measurements and still produces
// byte-identical output. Fitted models and rendered figures are never
// stored: every run derives them afresh from the measurements, so a
// store cannot hand back a figure the current code would not draw.
//
// With -distributed, several such processes pointed at one shared -cache
// directory (typically over a network filesystem) partition the
// measurement jobs among themselves with no coordinator: each is claimed
// through a lease file, executed by exactly one process, and replayed
// from the store by the rest, so every process still renders the
// complete, byte-identical output set into its own -out directory. Give
// each process a distinct stable -owner id; a process that dies mid-run
// stops heartbeating and its jobs are stolen by the survivors after
// -leasettl.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/assembly"
	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// options is one invocation's flags, resolved: by the time resolveFlags
// returns them every value a run could reject has been checked.
type options struct {
	fig, outDir, rowfmt  string
	procs, reps, workers int
	seed                 int64
	cache                string // "off" or the store directory
	trendAxis            harness.TrendAxis
	trendValues          []float64
	trendDim             campaign.Dimension
	sched                mpi.SchedulerMode
	rankCap              int
	distrib              bool
	owner                string
	ttl                  time.Duration

	obs obs.Outputs

	// jobs is the campaign graph the flags describe, fully expanded.
	jobs []campaign.Job
}

// figNames are the values -fig takes besides "all".
var figNames = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "trend"}

// rowSinks maps a -rowformat value to the rows-directory sink it builds:
// CSV shards, binary shards, or both as siblings (same stems, different
// extensions — the layout resultsd and obsreport read either side of).
var rowSinks = map[string]func(dir string) (results.Sink, error){
	"csv": func(dir string) (results.Sink, error) { return results.NewCSVShardSink(dir) },
	"bin": func(dir string) (results.Sink, error) { return results.NewBinShardSink(dir) },
	"both": func(dir string) (results.Sink, error) {
		csvSink, err := results.NewCSVShardSink(dir)
		if err != nil {
			return nil, err
		}
		binSink, err := results.NewBinShardSink(dir)
		if err != nil {
			return nil, err
		}
		return results.NewTee(csvSink, binSink), nil
	},
}

// resolveFlags parses the command line, resolves every flag value against
// the others and expands the campaign graph, trend grid included, so that
// every simulated machine the run would build has been validated. It
// touches nothing on disk: a rejected invocation leaves no output
// directory, clears no rows/ and starts no profile.
func resolveFlags(args []string) (*options, error) {
	o := &options{}
	var axis, trValues, rankmode string
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	fs.StringVar(&o.fig, "fig", "all", "figure to regenerate: 1..10, trend, or all")
	fs.StringVar(&o.outDir, "out", "figures", "output directory")
	fs.IntVar(&o.procs, "procs", 3, "simulated ranks")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.reps, "reps", 4, "sweep repetitions per size and mode")
	fs.IntVar(&o.workers, "workers", 0, "campaign workers (0 = all CPUs)")
	fs.StringVar(&o.cache, "cache", "auto", `checkpoint store directory ("auto" = <out>/.cache, "off" disables)`)
	fs.StringVar(&axis, "axis", "cache_kb", "trend grid axis for -fig trend: cache_kb | cpu_clock")
	fs.StringVar(&trValues, "trendvalues", "", "comma-separated -axis values for -fig trend (cache sizes in kB, or CPU clock scales); empty = the axis's defaults")
	fs.StringVar(&rankmode, "rankmode", "serial", "rank scheduler: serial | par (conservative) | opt (optimistic/Time Warp); par<N> or opt<N> runs at most N ranks at once. Output is bit-identical under every value; each checkpoints separately")
	fs.BoolVar(&o.distrib, "distributed", false, "partition the job set with other -distributed processes sharing the same -cache store via lease files (no coordinator); requires a store")
	fs.StringVar(&o.owner, "owner", "", "stable worker identity for -distributed lease and audit files (default: host-pid)")
	fs.DurationVar(&o.ttl, "leasettl", 0, "lease heartbeat expiry for -distributed; a crashed worker's jobs are stolen after this (0 = 30s default)")
	fs.StringVar(&o.rowfmt, "rowformat", "csv", "row shard format under <out>/rows: csv | bin | both (bin is the compact binary format resultsd prefers)")
	fs.StringVar(&o.obs.Trace, "trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	fs.StringVar(&o.obs.MetricsAddr, "metrics", "", "serve live /metrics and /trace on this HTTP address while the run executes (e.g. localhost:9090)")
	fs.StringVar(&o.obs.MetricsDump, "metricsdump", "", "write the final metrics registry in text exposition format to this file")
	fs.StringVar(&o.obs.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof); output bytes are unchanged")
	fs.StringVar(&o.obs.MemProfile, "memprofile", "", "write an allocation profile to this file when the run ends (go tool pprof -sample_index=alloc_space); output bytes are unchanged")
	fs.Parse(args) // ExitOnError: a syntax error has already exited with status 2

	if o.fig != "all" && !slices.Contains(figNames, o.fig) {
		return nil, fmt.Errorf("-fig %q: want 1..10, trend or all", o.fig)
	}
	if rowSinks[o.rowfmt] == nil {
		return nil, fmt.Errorf("-rowformat %q: want csv, bin or both", o.rowfmt)
	}
	var err error
	if o.trendAxis, err = harness.TrendAxisNamed(axis); err != nil {
		return nil, fmt.Errorf("-axis: %w", err)
	}
	if o.trendValues, err = parseFloats(trValues); err != nil {
		return nil, fmt.Errorf("-trendvalues: %w", err)
	}
	if len(o.trendValues) == 0 {
		o.trendValues = o.trendAxis.Defaults
	}
	if o.trendDim, err = o.trendAxis.Dimension(o.trendValues); err != nil {
		return nil, err
	}
	if o.sched, o.rankCap, err = mpi.ParseSched(rankmode); err != nil {
		return nil, fmt.Errorf("-rankmode: %w", err)
	}
	if o.distrib && (o.cache == "auto" || o.cache == "off") {
		// The default per-out-directory store would give every process a
		// private store: each would run the whole grid and no audit would
		// notice. The shared directory must be named explicitly.
		return nil, fmt.Errorf("-distributed needs one store shared by every process; pass the same explicit -cache <dir> to all of them")
	}
	if o.cache == "auto" {
		o.cache = filepath.Join(o.outDir, ".cache")
	}
	if o.reps < 1 {
		return nil, fmt.Errorf("-reps %d: want at least 1", o.reps)
	}
	g := &generator{o}
	// Of what Validate checks, -procs is all the flags set on the case-study
	// and sweep worlds; the trend grid validates its own scenarios.
	if err := g.world(mpi.DefaultConfig()).Validate(); err != nil {
		return nil, fmt.Errorf("-procs: %w", err)
	}
	if o.jobs, err = g.jobs(); err != nil {
		return nil, err
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

// run executes the resolved campaign, reporting progress to w. It has one
// way out: the row sink and the lease manager are closed and the trace,
// the metrics dump and the profiles are written whether the campaign
// succeeded or failed.
func run(o *options, w io.Writer) (err error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stopObs, err := o.obs.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopObs()) }()

	cfg := campaign.Config{
		Workers: o.workers,
		OnProgress: func(e campaign.Event) {
			if (strings.HasPrefix(e.Key, "fig") || e.Key == "trend") && e.Err == nil {
				fmt.Fprintf(w, "%s done\n", e.Key)
			}
		},
	}
	switch {
	case o.cache == "off":
	case o.distrib:
		// Distributed mode: the store is shared with the other processes
		// and every checkpointable job is arbitrated through a lease.
		var mgr *lease.Manager
		cfg, mgr, err = harness.DistributedConfig(cfg, o.cache, o.owner, lease.Options{TTL: o.ttl})
		if err != nil {
			return err
		}
		defer func() {
			// This process's share of the partition; the union across all
			// owners' audit logs proves every job executed exactly once.
			note := ""
			if n := mgr.Lost(); n > 0 {
				note = fmt.Sprintf(" (%d lease(s) lost to stealers)", n)
			}
			fmt.Fprintf(w, "distributed: owner %s executed %d of %d job(s)%s\n",
				mgr.Owner(), len(mgr.Executed()), len(o.jobs), note)
			err = errors.Join(err, mgr.Close())
		}()
	default:
		st, err := store.Open(o.cache)
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	// The rows directory reflects exactly this invocation: clearing it
	// first keeps shards from a previous run's configuration (other cache
	// sizes, other figures) from mixing with fresh telemetry.
	rowsDir := filepath.Join(o.outDir, "rows")
	if err := os.RemoveAll(rowsDir); err != nil {
		return err
	}
	sink, err := rowSinks[o.rowfmt](rowsDir)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sink.Close()) }()
	cfg.Sink = sink

	_, err = campaign.Run(context.Background(), cfg, o.jobs)
	return err
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// generator builds the campaign graph from the resolved flags.
type generator struct{ *options }

// world puts -procs, -seed and -rankmode on a default world.
func (g *generator) world(w mpi.WorldConfig) mpi.WorldConfig {
	w.Procs = g.procs
	w.Seed = g.seed
	return w.WithScheduler(g.sched, g.rankCap)
}

// jobs assembles the campaign graph for the wanted figures: measurement
// jobs (case study, sweeps, trend grid scenarios) and figure jobs hanging
// off whichever measurements they fit and render.
func (g *generator) jobs() ([]campaign.Job, error) {
	want := func(n string) bool { return g.fig == "all" || g.fig == n }
	needCase := want("1") || want("2") || want("3") || want("9") || want("10")
	needSweep := map[harness.Kernel]bool{
		harness.KernelStates:  want("4") || want("5") || want("6") || want("10"),
		harness.KernelGodunov: want("7") || want("10"),
		harness.KernelEFM:     want("8") || want("10"),
	}
	sweepKey := func(k harness.Kernel) string { return "sweep/" + string(k) }

	var jobs []campaign.Job
	if needCase {
		cfg := harness.DefaultCaseStudy()
		cfg.World = g.world(cfg.World)
		jobs = append(jobs, harness.CaseStudyJob("case", cfg))
	}
	for _, k := range []harness.Kernel{harness.KernelStates, harness.KernelGodunov, harness.KernelEFM} {
		if needSweep[k] {
			jobs = append(jobs, harness.SweepJob(sweepKey(k), g.sweepConfig(k)))
		}
	}

	caseOf := func(deps map[string]any) *harness.CaseStudyResult {
		return deps["case"].(*harness.CaseStudyResult)
	}
	sweepOf := func(deps map[string]any, k harness.Kernel) *harness.SweepResult {
		return deps[sweepKey(k)].(*harness.SweepResult)
	}
	add := func(n string, after []string, render func(deps map[string]any) error) {
		if want(n) {
			jobs = append(jobs, figJob("fig"+n, after, render))
		}
	}

	add("1", []string{"case"}, func(deps map[string]any) error {
		return g.write("fig1.pgm", caseOf(deps).WritePGM)
	})
	add("2", []string{"case"}, func(deps map[string]any) error {
		return g.write("fig2.dot", func(f io.Writer) error {
			_, err := io.WriteString(f, caseOf(deps).AssemblyDOT)
			return err
		})
	})
	add("3", []string{"case"}, func(deps map[string]any) error {
		return g.write("fig3.txt", caseOf(deps).WriteProfile)
	})
	add("4", []string{sweepKey(harness.KernelStates)}, func(deps map[string]any) error {
		return g.write("fig4.csv", sweepOf(deps, harness.KernelStates).WriteScatterCSV)
	})
	add("5", []string{sweepKey(harness.KernelStates)}, func(deps map[string]any) error {
		return g.write("fig5.csv", sweepOf(deps, harness.KernelStates).WriteRatiosCSV)
	})
	for _, fk := range []struct {
		n string
		k harness.Kernel
	}{
		{"6", harness.KernelStates}, {"7", harness.KernelGodunov}, {"8", harness.KernelEFM},
	} {
		n, k := fk.n, fk.k
		add(n, []string{sweepKey(k)}, func(deps map[string]any) error {
			return g.figModel(sweepOf(deps, k), "fig"+n)
		})
	}
	add("9", []string{"case"}, func(deps map[string]any) error {
		return g.write("fig9.csv", caseOf(deps).WriteGhostCommCSV)
	})
	add("10", []string{"case", sweepKey(harness.KernelStates), sweepKey(harness.KernelGodunov), sweepKey(harness.KernelEFM)},
		func(deps map[string]any) error {
			models := map[harness.Kernel]*harness.ComponentModel{}
			for _, k := range []harness.Kernel{harness.KernelStates, harness.KernelGodunov, harness.KernelEFM} {
				m, err := harness.FitModels(sweepOf(deps, k))
				if err != nil {
					return err
				}
				models[k] = m
			}
			return g.fig10(caseOf(deps), models)
		})

	if want("trend") {
		tj, err := g.trendJobs()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, tj...)
	}
	return jobs, nil
}

// sweepConfig builds the calibrated sweep for one kernel.
func (g *generator) sweepConfig(k harness.Kernel) harness.SweepConfig {
	cfg := harness.DefaultSweep(k)
	cfg.World = g.world(cfg.World)
	cfg.Reps = g.reps
	return cfg
}

// trendJobs builds the Section 6 grid study: one streaming States scenario
// job per axis value — each emits its rows into the shard sink and keeps
// only the fitted model — plus the trend job that consumes every grid
// point and renders the coefficient-vs-axis report. The flux segment puts
// the kernel in every key, so resultsd fits those shards in the paper's
// form, as trend.csv does. One replication suffices: a kernel sweep's rows
// do not depend on its seed.
func (g *generator) trendJobs() ([]campaign.Job, error) {
	base := g.sweepConfig(harness.KernelStates)
	jobs, err := harness.StreamJobs(base, campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{g.trendDim, campaign.FluxAxis(string(harness.KernelStates))},
		BaseSeed: g.seed,
	})
	if err != nil {
		return nil, err
	}
	after := make([]string, len(jobs))
	for i, j := range jobs {
		after[i] = j.Key
	}
	trend := figJob("trend", after, func(deps map[string]any) error {
		points := make([]harness.GridPoint, len(after))
		for i, key := range after {
			points[i] = deps[key].(harness.GridPoint)
		}
		reports, err := harness.BuildTrends(points, g.trendAxis)
		if err != nil {
			return err
		}
		if err := g.write("trend.csv", func(w io.Writer) error {
			return harness.WriteTrendCSV(w, reports)
		}); err != nil {
			return err
		}
		return g.write("trend.txt", func(w io.Writer) error {
			return harness.WriteTrendReport(w, reports)
		})
	})
	return append(jobs, trend), nil
}

// figJob wraps a figure renderer as a campaign job. It carries no
// checkpoint hash: rendering is cheap once its dependencies are decoded,
// so every run derives the figure afresh.
func figJob(key string, after []string, render func(deps map[string]any) error) campaign.Job {
	return campaign.Job{Key: key, After: after, Run: func(_ context.Context, deps map[string]any) (any, error) {
		return nil, render(deps)
	}}
}

// write renders fn into a buffer and writes it to the named output file.
func (g *generator) write(name string, fn func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(g.outDir, name), buf.Bytes(), 0o644)
}

// figModel renders one kernel sweep's Fig. 6/7/8 series and its model
// report. The report ends with the sweep's cache-aware fit T(Q, DCM), the
// Section 6 outlook's use of "the cache information collected during
// these tests".
func (g *generator) figModel(sw *harness.SweepResult, name string) error {
	m, err := harness.FitModels(sw)
	if err != nil {
		return err
	}
	if err := g.write(name+".csv", func(f io.Writer) error {
		return harness.WriteMeanSigmaCSV(f, m)
	}); err != nil {
		return err
	}
	return g.write(name+"_model.txt", func(f io.Writer) error {
		if err := harness.WriteModelReport(f, m); err != nil {
			return err
		}
		ml, r2Aware, r2Plain, err := harness.CacheAwareFit(sw.Rows())
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "cache-aware model (%d kB): T = %s\n", sw.Config.World.Cache.SizeBytes/1024, ml)
		_, err = fmt.Fprintf(f, "  R2 with DCM folded in: %.4f   (Q-only linear: %.4f)\n", r2Aware, r2Plain)
		return err
	})
}

func (g *generator) fig10(caseRes *harness.CaseStudyResult, models map[harness.Kernel]*harness.ComponentModel) error {
	god := models[harness.KernelGodunov]
	efm := models[harness.KernelEFM]
	dual := harness.BuildDual(caseRes, models)
	if err := g.write("fig10.dot", func(f io.Writer) error {
		return dual.WriteDOT(f, "application-dual")
	}); err != nil {
		return err
	}
	return g.write("fig10.txt", func(f io.Writer) error {
		var sb strings.Builder
		fmt.Fprintf(&sb, "composite model cost: %.0f us\n\n", dual.Cost())
		opt := &assembly.Optimizer{
			Dual:  dual,
			Slots: []assembly.Slot{harness.FluxSlot("g_proxy", god, efm)},
		}
		best, ranking, err := opt.Optimize()
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "assembly optimization over flux implementations:\n")
		for _, r := range ranking {
			fmt.Fprintf(&sb, "  %-12s cost %12.0f us  (min QoS %.2f)\n",
				r.Choice["g_proxy"], r.Cost, r.MinQoS)
		}
		fmt.Fprintf(&sb, "performance-optimal: %s\n", best.Choice["g_proxy"])
		opt.MinQoS = 0.9
		bestQ, _, err := opt.Optimize()
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "with QoS >= 0.9 (scientists' accuracy floor): %s\n\n", bestQ.Choice["g_proxy"])

		// Crossover study: the optimal flux as the production problem size
		// grows ("EFMFlux has better characteristics ... especially for
		// large arrays", paper Section 5).
		fmt.Fprintf(&sb, "optimal flux vs workload size (model-guided):\n")
		for _, q := range []float64{200, 1_000, 10_000, 100_000} {
			trial := harness.BuildDual(caseRes, models)
			for _, name := range []string{"g_proxy", "sc_proxy", "efm_proxy"} {
				if v := trial.Vertex(name); v != nil {
					nv := *v
					nv.Q = q
					trial.AddVertex(nv)
				}
			}
			o2 := &assembly.Optimizer{Dual: trial,
				Slots: []assembly.Slot{harness.FluxSlot("g_proxy", god, efm)}}
			b2, _, err := o2.Optimize()
			if err != nil {
				return err
			}
			fmt.Fprintf(&sb, "  Q=%7.0f -> %-12s (cost %12.0f us)\n", q, b2.Choice["g_proxy"], b2.Cost)
		}
		_, err = io.WriteString(f, sb.String())
		return err
	})
}
