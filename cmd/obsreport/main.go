// Command obsreport aggregates a finished run's observability artifacts
// into throughput reports:
//
//   - With -store, it reads every owner's lease audit log from the shared
//     checkpoint store and prints the per-owner throughput table: jobs
//     executed, busy time, wall-clock span, jobs/s and each owner's share
//     of the total busy time. Over a distributed campaign this is the
//     load-balance summary — each job appears under exactly the owner
//     that executed it.
//
//   - With -trace, it parses a Chrome trace-event JSON exported by
//     cmd/figures -trace (or any internal/obs tracer), validates it
//     against the trace-event schema, and prints the per-track table:
//     spans, instants, busy time and observed window per (process, track)
//     — one row per campaign worker, MPI rank and lease owner.
//
// The optimistic scheduler's speculation telemetry is not a report here:
// it lives in the metrics registry (mpi_spec_*), which cmd/figures and
// cmd/pmmcase write with -metricsdump.
//
// -require makes validation strict for CI: a comma-separated list of
// process names (e.g. "campaign,lease,mpi") that must each contribute at
// least one track to the trace, so a refactor that silently drops a whole
// instrumentation layer fails the pipeline instead of shipping an empty
// track.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

func main() {
	var (
		storeDir = flag.String("store", "", "checkpoint store directory; reads its lease audit logs into a per-owner throughput report")
		traceIn  = flag.String("trace", "", "Chrome trace-event JSON file; validated and summarized per track")
		require  = flag.String("require", "", "comma-separated process names the trace must contain (CI gate; implies -trace)")
	)
	flag.Parse()
	if *storeDir == "" && *traceIn == "" {
		fatal(fmt.Errorf("nothing to report: pass -store and/or -trace"))
	}
	if *require != "" && *traceIn == "" {
		fatal(fmt.Errorf("-require needs -trace"))
	}

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		execs, err := lease.ReadAuditEntries(st)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("owner throughput (%s):\n", *storeDir)
		if err := obs.WriteOwnerReport(os.Stdout, execs); err != nil {
			fatal(err)
		}
	}

	if *traceIn != "" {
		data, err := os.ReadFile(*traceIn)
		if err != nil {
			fatal(err)
		}
		tf, err := obs.ParseTrace(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *traceIn, err))
		}
		if err := obs.ValidateTrace(tf); err != nil {
			fatal(fmt.Errorf("%s: %w", *traceIn, err))
		}
		if *require != "" {
			have := map[string]bool{}
			for _, p := range tf.Processes() {
				have[p] = true
			}
			var missing []string
			for _, want := range strings.Split(*require, ",") {
				want = strings.TrimSpace(want)
				if want != "" && !have[want] {
					missing = append(missing, want)
				}
			}
			if len(missing) > 0 {
				fatal(fmt.Errorf("%s: missing required process track(s): %s",
					*traceIn, strings.Join(missing, ", ")))
			}
		}
		if *storeDir != "" {
			fmt.Println()
		}
		fmt.Printf("trace tracks (%s):\n", *traceIn)
		if err := obs.WriteTrackReport(os.Stdout, tf); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
