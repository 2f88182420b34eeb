// Campaign: run a parameter-grid study of the States kernel as one
// parallel, streaming, checkpointed campaign — the paper's Section 6
// outlook ("the coefficients should be parameterized by processor speed
// and a cache model") scaled to many scenarios at once.
//
// A Grid is a list of first-class axes (Dimension values) crossed with
// seed replications. Here the grid sweeps the cache-size axis against the
// CPU clock axis, plus a custom user-defined dimension — main-memory
// latency — to show that adding a machine parameter to the sweep space is
// one Dimension literal, not a library change. The flux axis names the
// measured kernel in every key, so resultsd fits it in the paper's form.
// A kernel sweep's rows ignore the seed, so each grid runs one
// replication, and every one of its scenarios is a distinct measurement.
// Each scenario streams its telemetry rows into a sink (a CSV-shard sink
// teed with its binary sibling) and checkpoints its fitted model
// into a content-addressed store, then drops its raw sweep: memory stays
// bounded as the grid grows, and re-running the example resumes from the
// store, executing zero completed scenarios while producing identical
// output.
//
// The example closes with the distributed layer: two coordinator-free
// workers (harness.DistributedConfig: a lease manager per worker over one
// shared store) partition a second grid between themselves — the lease
// audit shows every scenario executed exactly once, and both workers
// still produce identical trend reports because each replays the other's
// checkpointed scenarios from the store.
//
// The whole run is self-observed: an Observer enabled up front records
// every campaign job, lease claim and simulated MPI rank, and the example
// ends by writing a Chrome trace (campaign-out/trace.json — load it in
// chrome://tracing or Perfetto) and printing the per-owner throughput
// report recovered from the lease audit. Observation is write-only, so
// every byte above is identical to an unobserved run.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/results"
	"repro/internal/results/serve"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

func main() {
	if err := run(os.Stdout, "campaign-out"); err != nil {
		log.Fatal(err)
	}
}

// run executes the whole tour, printing to w and writing rows, stores and
// the trace under outDir.
func run(w io.Writer, outDir string) error {
	// Observe the whole run: the campaign engine, lease managers and
	// simulated worlds capture their instruments at construction, so the
	// observer goes in before anything else is opened.
	observer := obs.New(obs.Options{})
	obs.Enable(observer)
	defer obs.Disable()

	// A reduced States sweep keeps the demo quick.
	base := harness.DefaultSweep(harness.KernelStates)
	base.Sizes = base.Sizes[:6]
	base.Reps = 2
	base.World.Procs = 2

	// A custom axis: nobody had to touch the campaign package for this.
	// Each value names itself (the key token lands in scenario keys and
	// shard file names) and mutates the scenario's machine: a slower main
	// memory charges every cache miss more cycles.
	memory := campaign.Dimension{Name: "memlat", Values: []campaign.DimValue{
		{Key: "lat1x", Value: 1.0},
		{Key: "lat2x", Value: 2.0, Apply: func(w *mpi.WorldConfig) { w.CPU.MissCycles *= 2 }},
	}}

	g := campaign.Grid{
		Base: base.World,
		Axes: []campaign.Dimension{
			campaign.CacheAxis(128, 512),
			campaign.CPUClockAxis(1, 2),
			memory,
			campaign.FluxAxis("states"),
		},
		BaseSeed: 1,
	}
	scs, err := g.Scenarios()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign: %d scenarios on %d workers\n", len(scs), runtime.NumCPU())

	// Streamed results: one CSV shard per scenario, teed with its compact
	// binary sibling (same rows, same stems, ".bin" extension; the format
	// resultsd prefers), checkpointed under a cache directory for cheap
	// re-runs.
	shards, err := results.NewCSVShardSink(filepath.Join(outDir, "rows"))
	if err != nil {
		return err
	}
	binShards, err := results.NewBinShardSink(filepath.Join(outDir, "rows"))
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(outDir, ".cache"))
	if err != nil {
		return err
	}
	cc := campaign.Config{
		Store: st,
		Sink:  results.NewTee(shards, binShards),
		OnProgress: func(e campaign.Event) {
			status := "ok"
			if e.Cached {
				status = "ok (from checkpoint)"
			}
			if e.Err != nil {
				status = e.Err.Error()
			}
			fmt.Fprintf(w, "  [%2d/%2d] %-32s %8.2fs  %s\n",
				e.Done, e.Total, e.Key, e.Elapsed.Seconds(), status)
		},
	}
	pts, err := harness.StreamSweepGrid(context.Background(), cc, base, g)
	if err != nil {
		return err
	}
	if err := shards.Close(); err != nil {
		return err
	}
	if err := binShards.Close(); err != nil {
		return err
	}

	// Every axis moves the machine, so no two scenarios measure the same
	// thing: each grid point's fitted mean model is distinct.
	distinct := map[string]bool{}
	for _, p := range pts {
		_, coeffs := perfmodel.Coefficients(p.Model.Mean)
		distinct[fmt.Sprint(coeffs)] = true
	}
	fmt.Fprintf(w, "\n%d distinct measurements of %d scenarios\n", len(distinct), len(scs))

	// The cross-scenario trends: the same grid points fit against either
	// machine axis. The functional form stays a power law while the
	// coefficients move with the cache size and the clock scale — and the
	// trend fit turns that movement into a model of its own.
	for _, axis := range []harness.TrendAxis{harness.TrendCacheKB, harness.TrendCPUClock} {
		reports, err := harness.BuildTrends(pts, axis)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := harness.WriteTrendReport(w, reports); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nscenario rows under %s, checkpoints under %s — re-run me: zero scenarios re-execute\n",
		filepath.Join(outDir, "rows"), filepath.Join(outDir, ".cache"))

	if err := queryService(w, outDir); err != nil {
		return err
	}

	// Coordinator-free distribution: the same store machinery lets several
	// independent processes split one grid through lease files. Two
	// workers here (goroutines, to keep the example self-contained — real
	// fleets run "cmd/figures -distributed" processes on separate hosts
	// against an NFS store) each claim scenarios from a fresh grid; every
	// scenario runs in exactly one worker and is replayed from the store
	// by the other, so both workers end with the complete result set.
	fmt.Fprintln(w, "\ndistributed: two coordinator-free workers, one shared store")
	dg := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(128, 256, 512, 1024), campaign.FluxAxis("states")},
		BaseSeed: 7,
	}
	dstore := filepath.Join(outDir, ".cache-distributed")
	var wg sync.WaitGroup
	workers := []string{"w1", "w2"}
	mgrs := make([]*lease.Manager, len(workers))
	points := make([][]harness.GridPoint, len(workers))
	errs := make([]error, len(workers))
	for i, owner := range workers {
		cc, mgr, err := harness.DistributedConfig(
			campaign.Config{Workers: 2}, dstore, owner, lease.Options{})
		if err != nil {
			return err
		}
		defer mgr.Close()
		mgrs[i] = mgr
		wg.Add(1)
		go func() {
			defer wg.Done()
			points[i], errs[i] = harness.StreamSweepGrid(context.Background(), cc, base, dg)
		}()
	}
	wg.Wait()
	trends := make([]string, len(workers))
	for i, owner := range workers {
		if errs[i] != nil {
			return fmt.Errorf("worker %s: %w", owner, errs[i])
		}
		fmt.Fprintf(w, "  %s executed %2d scenario(s), observed %d grid points\n",
			owner, len(mgrs[i].Executed()), len(points[i]))
		if trends[i], err = trendCSV(points[i]); err != nil {
			return err
		}
	}
	dst, err := store.Open(dstore)
	if err != nil {
		return err
	}
	execs, err := lease.ReadAuditEntries(dst)
	if err != nil {
		return err
	}
	runs, dups := map[string]int{}, 0
	for _, e := range execs {
		runs[e.Key]++
		if runs[e.Key] == 2 {
			dups++
		}
	}
	match := "byte-identical"
	if trends[0] != trends[1] {
		match = "MISMATCHED"
	}
	fmt.Fprintf(w, "  audit: %d scenarios executed, %d duplicates; both workers' trend reports %s\n",
		len(runs), dups, match)

	// The observability dividend: the per-owner throughput table from the
	// lease audit, the per-track summary from the trace, and the trace
	// itself for chrome://tracing.
	fmt.Fprintln(w, "\nowner throughput (from the lease audit):")
	if err := obs.WriteOwnerReport(w, execs); err != nil {
		return err
	}
	tracePath := filepath.Join(outDir, "trace.json")
	if err := observer.Tracer().WriteTraceFile(tracePath); err != nil {
		return err
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		return err
	}
	if err := obs.ValidateTrace(tf); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntrace tracks (campaign workers / MPI ranks / lease owners):")
	if err := obs.WriteTrackReport(w, tf); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nChrome trace written to %s — open it in chrome://tracing or https://ui.perfetto.dev\n", tracePath)
	return nil
}

// queryService shows results as a service: the rows directory just written
// is already a queryable model server — cmd/resultsd wraps the same service
// in a standalone process; here it runs in-process on a loopback port. The
// responses are fitted-model evaluations, so they are as deterministic as
// the campaign itself: identical rows, identical bytes.
func queryService(w io.Writer, outDir string) error {
	svc, err := serve.New(outDir, serve.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	scenario := svc.Catalog().Scenarios()[0].Name
	fmt.Fprintf(w, "\nresultsd over %s (%d scenarios; first: %s):\n",
		filepath.Join(outDir, "rows"), len(svc.Catalog().Scenarios()), scenario)
	for _, query := range []string{
		"/predict?scenario=" + scenario + "&measure=mean_us&q=8000",
		"/predict?scenario=" + scenario + "&measure=response_us&model=queue&q=8000&lambda=50",
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + query)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  GET %s\n%s", query, indent(body, "    "))
	}
	return nil
}

// indent prefixes every line of a response body for the demo printout.
func indent(body []byte, prefix string) string {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// trendCSV renders a worker's grid points as the trend CSV, the bytes
// the distributed guarantee compares.
func trendCSV(pts []harness.GridPoint) (string, error) {
	reports, err := harness.BuildTrends(pts, harness.TrendCacheKB)
	if err != nil {
		return "", err
	}
	var buf strings.Builder
	err = harness.WriteTrendCSV(&buf, reports)
	return buf.String(), err
}
