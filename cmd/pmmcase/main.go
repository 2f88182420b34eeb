// Command pmmcase runs the paper's case study end to end on the simulated
// platform: the CCA component application (SAMR shock/interface simulation)
// with the PMM infrastructure interposed, printing the Fig. 3 FUNCTION
// SUMMARY and, optionally, the Mastermind record dumps. The kernel sweeps,
// their Eq. 1/Eq. 2 models and the machine-axis trend study are
// cmd/figures' (-fig 6..8 and -fig trend).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/components"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// options is one invocation's flags, resolved.
type options struct {
	procs, steps, baseNx, baseNy int
	seed                         int64
	flux                         components.FluxChoice
	records                      bool
	sched                        mpi.SchedulerMode
	rankCap                      int
	obs                          obs.Outputs
}

// world puts -procs, -seed and -rankmode on a default world; the parallel
// schedulers change wall-clock time only, never results.
func (o *options) world(wc mpi.WorldConfig) mpi.WorldConfig {
	wc.Procs = o.procs
	wc.Seed = o.seed
	return wc.WithScheduler(o.sched, o.rankCap)
}

// resolveFlags parses the command line and resolves every flag value
// before anything starts: a bad value costs no simulation, prints no
// profile and creates no file.
func resolveFlags(args []string) (*options, error) {
	o := &options{}
	var flux, rankmode string
	fs := flag.NewFlagSet("pmmcase", flag.ExitOnError)
	fs.IntVar(&o.procs, "procs", 3, "number of simulated ranks")
	fs.IntVar(&o.steps, "steps", 0, "coarse time steps (0 = default)")
	fs.IntVar(&o.baseNx, "nx", 0, "base grid x cells (0 = default)")
	fs.IntVar(&o.baseNy, "ny", 0, "base grid y cells (0 = default)")
	fs.StringVar(&flux, "flux", "godunov", "flux implementation: godunov | efm")
	fs.BoolVar(&o.records, "records", false, "dump the Mastermind records (CSV)")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.StringVar(&rankmode, "rankmode", "serial", "rank scheduler: serial | par (conservative) | opt (optimistic/Time Warp); par<N> or opt<N> runs at most N ranks at once. Output is bit-identical under every value")
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
	if o.steps < 0 || o.baseNx < 0 || o.baseNy < 0 {
		return nil, fmt.Errorf("-steps %d -nx %d -ny %d: a size is 0 (the default) or more", o.steps, o.baseNx, o.baseNy)
	}
	var err error
	if o.sched, o.rankCap, err = mpi.ParseSched(rankmode); err != nil {
		return nil, fmt.Errorf("-rankmode: %w", err)
	}
	// Of what Validate checks, -procs is all the flags set on a world.
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

// run executes the case study, printing to w. It has one way out: the
// trace, the metrics dump and the profiles are written whether the run
// succeeded or failed — a trace of a broken run is exactly what the
// post-mortem wants.
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
	return nil
}
