// Campaign: run a parameter-grid study of the States kernel as one
// parallel, streaming, checkpointed campaign — the paper's Section 6
// outlook ("the coefficients should be parameterized by processor speed
// and a cache model") scaled to many scenarios at once.
//
// A Grid is a list of first-class axes (Dimension values) crossed with
// seed replications. Here the grid sweeps the cache-size axis against the
// new CPU clock axis, plus a custom user-defined dimension — network load
// noise — to show that adding a machine parameter to the sweep space is
// one Dimension literal, not an API change. Each scenario streams its
// telemetry rows into a sink (a CSV-shard sink teed with an on-the-fly
// aggregator) and checkpoints its fitted model into a content-addressed
// store, then drops its raw sweep: memory stays bounded as the grid grows,
// and re-running the example resumes from the store, executing zero
// completed scenarios while producing identical output.
//
// The grid also sweeps the rank scheduler (SchedAxis: serial,
// conservative parallel, optimistic parallel). That axis is seed-inert —
// paired scenarios share a derived seed — so the example verifies, from
// the streamed aggregates alone, that every parallel scenario reproduced
// its serial twin exactly: rank-level parallelism inside a world composes
// with the campaign's across-world parallelism without changing one bit
// of output.
//
// The example closes with the distributed layer: two coordinator-free
// workers (DistributedCampaignConfig: a lease manager per worker over one
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

	"repro"
)

func main() {
	// Observe the whole run: the campaign engine, lease managers and
	// simulated worlds capture their instruments at construction, so the
	// observer goes in before anything else is opened.
	observer := repro.NewObserver(repro.ObserverOptions{})
	repro.EnableObserver(observer)
	defer repro.DisableObserver()

	// A reduced States sweep keeps the demo quick.
	base := repro.DefaultSweep(repro.KernelStates)
	base.Sizes = base.Sizes[:6]
	base.Reps = 2
	base.World.Procs = 2

	// A custom axis: nobody had to touch the campaign package for this.
	// Each value names itself (the key token lands in scenario keys and
	// shard file names) and mutates the scenario's machine.
	noise := repro.Dimension{Name: "load", Values: []repro.DimValue{
		{Key: "quiet", Value: 0.0, Apply: func(w *repro.WorldConfig) { w.Net.NoiseSigma = 0 }},
		{Key: "loaded", Value: 0.7, Apply: func(w *repro.WorldConfig) { w.Net.NoiseSigma = 0.7 }},
	}}

	// The scheduler axis sweeps all three modes.
	g := repro.Grid{
		Base: base.World,
		Axes: []repro.Dimension{
			repro.CacheAxis(128, 512),
			repro.CPUClockAxis(1, 2),
			noise,
			repro.SchedAxis(
				repro.SchedChoice{Mode: repro.SchedSerial},
				repro.SchedChoice{Mode: repro.SchedConservativeParallel},
				repro.SchedChoice{Mode: repro.SchedOptimisticParallel},
			),
		},
		Replications: 2,
		BaseSeed:     1,
	}
	scs, err := g.Scenarios()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d scenarios on %d workers\n", len(scs), runtime.NumCPU())

	// Streamed results: one CSV shard per scenario — teed with its compact
	// binary sibling (same rows, same stems, ".bin" extension; the format
	// resultsd prefers) — plus running aggregates, checkpointed under a
	// cache directory for cheap re-runs.
	outDir := "campaign-out"
	shards, err := repro.NewCSVShardSink(filepath.Join(outDir, "rows"))
	if err != nil {
		log.Fatal(err)
	}
	binShards, err := repro.NewBinShardSink(filepath.Join(outDir, "rows"))
	if err != nil {
		log.Fatal(err)
	}
	agg := repro.NewAggSink()
	st, err := repro.OpenStore(filepath.Join(outDir, ".cache"))
	if err != nil {
		log.Fatal(err)
	}
	cc := repro.CampaignConfig{
		Store: st,
		Sink:  repro.NewTee(shards, binShards, agg),
		OnProgress: func(e repro.CampaignEvent) {
			status := "ok"
			if e.Cached {
				status = "ok (from checkpoint)"
			}
			if e.Err != nil {
				status = e.Err.Error()
			}
			fmt.Printf("  [%2d/%2d] %-32s %8.2fs  %s\n",
				e.Done, e.Total, e.Key, e.Elapsed.Seconds(), status)
		},
	}
	pts, err := repro.StreamSweepGrid(context.Background(), cc, base, g)
	if err != nil {
		log.Fatal(err)
	}
	if err := shards.Close(); err != nil {
		log.Fatal(err)
	}
	if err := binShards.Close(); err != nil {
		log.Fatal(err)
	}

	// The streamed aggregates: per-scenario wall-time statistics computed
	// on the fly, no raw rows retained.
	fmt.Println("\nstreamed wall_us aggregates (per scenario):")
	for _, key := range agg.Keys() {
		if s, ok := agg.Stat(key, "wall_us"); ok {
			fmt.Printf("  %-40s n=%4d  mean=%10.2f  sd=%10.2f\n", key, s.N, s.Mean, s.StdDev)
		}
	}

	// Scheduler equivalence at scale: the sched axis is seed-inert, so a
	// "/par/" or "/opt/" scenario is the same experiment as its "/serial/"
	// twin and must have streamed identical telemetry.
	pairs, mismatches := 0, 0
	for _, key := range agg.Keys() {
		if !strings.Contains(key, "/serial/") {
			continue
		}
		s1, ok1 := agg.Stat(key, "wall_us")
		if !ok1 {
			log.Fatalf("scenario %s missing from aggregates", key)
		}
		for _, mode := range []string{"/par/", "/opt/"} {
			twin := strings.Replace(key, "/serial/", mode, 1)
			s2, ok2 := agg.Stat(twin, "wall_us")
			if !ok2 {
				log.Fatalf("scheduler twin %s missing from aggregates", twin)
			}
			pairs++
			if s1 != s2 {
				mismatches++
				fmt.Printf("  MISMATCH %s: serial %+v != %s %+v\n", key, s1, twin, s2)
			}
		}
	}
	fmt.Printf("\nscheduler equivalence: %d serial-vs-parallel scenario pairs, %d mismatches\n", pairs, mismatches)

	// The cross-scenario trends: the same grid points fit against either
	// machine axis. The functional form stays a power law while the
	// coefficients move with the cache size and the clock scale — and the
	// trend fit turns that movement into a model of its own.
	for _, axis := range []repro.TrendAxis{repro.TrendCacheKB, repro.TrendCPUClock} {
		reports, err := repro.BuildTrends(pts, axis)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := repro.WriteTrendReport(os.Stdout, reports); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nscenario rows under %s, checkpoints under %s — re-run me: zero scenarios re-execute\n",
		filepath.Join(outDir, "rows"), filepath.Join(outDir, ".cache"))

	// Results as a service: the rows directory just written is already a
	// queryable model server — cmd/resultsd wraps the same service in a
	// standalone process; here it runs in-process on a loopback port. The
	// responses are fitted-model evaluations, so they are as deterministic
	// as the campaign itself: identical rows, identical bytes.
	svc, err := repro.NewResultsService(outDir, repro.ResultsServiceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	scenario := svc.Catalog().Scenarios()[0].Name
	fmt.Printf("\nresultsd over %s (%d scenarios; first: %s):\n",
		filepath.Join(outDir, "rows"), len(svc.Catalog().Scenarios()), scenario)
	for _, query := range []string{
		"/predict?scenario=" + scenario + "&measure=mean_us&q=8000",
		"/predict?scenario=" + scenario + "&measure=response_us&model=queue&q=8000&lambda=50",
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + query)
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  GET %s\n%s", query, indent(body, "    "))
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	// Coordinator-free distribution: the same store machinery lets several
	// independent processes split one grid through lease files. Two
	// workers here (goroutines, to keep the example self-contained — real
	// fleets run "cmd/figures -distributed" processes on separate hosts
	// against an NFS store) each claim scenarios from a fresh grid; every
	// scenario runs in exactly one worker and is replayed from the store
	// by the other, so both workers end with the complete result set.
	fmt.Println("\ndistributed: two coordinator-free workers, one shared store")
	dg := repro.Grid{
		Base:         base.World,
		Axes:         []repro.Dimension{repro.CacheAxis(128, 256, 512, 1024)},
		Replications: 2,
		BaseSeed:     7,
	}
	dstore := filepath.Join(outDir, ".cache-distributed")
	var wg sync.WaitGroup
	workers := []string{"w1", "w2"}
	mgrs := make([]*repro.LeaseManager, len(workers))
	points := make([][]repro.GridPoint, len(workers))
	for i, owner := range workers {
		cc, mgr, err := repro.DistributedCampaignConfig(
			repro.CampaignConfig{Workers: 2}, dstore, owner, repro.LeaseOptions{})
		if err != nil {
			log.Fatal(err)
		}
		mgrs[i] = mgr
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts, err := repro.StreamSweepGrid(context.Background(), cc, base, dg)
			if err != nil {
				log.Fatal(err)
			}
			points[i] = pts
		}()
	}
	wg.Wait()
	for i, owner := range workers {
		fmt.Printf("  %s executed %2d scenario(s), observed %d grid points\n",
			owner, len(mgrs[i].Executed()), len(points[i]))
		mgrs[i].Close()
	}
	audit, err := repro.ReadLeaseAudit(st2(dstore))
	if err != nil {
		log.Fatal(err)
	}
	dups := 0
	for _, owners := range audit {
		if len(owners) > 1 {
			dups++
		}
	}
	match := "byte-identical"
	if trendBytes(points[0]) != trendBytes(points[1]) {
		match = "MISMATCHED"
	}
	fmt.Printf("  audit: %d scenarios executed, %d duplicates; both workers' trend reports %s\n",
		len(audit), dups, match)

	// The observability dividend: the per-owner throughput table from the
	// lease audit, the per-track summary from the trace, and the trace
	// itself for chrome://tracing.
	entries, err := repro.ReadLeaseAuditEntries(st2(dstore))
	if err != nil {
		log.Fatal(err)
	}
	execs := make([]repro.OwnerExec, len(entries))
	for i, e := range entries {
		execs[i] = repro.OwnerExec{Owner: e.Owner, Key: e.Key, ElapsedUS: e.ElapsedUS, EndUnixNS: e.EndUnixNS}
	}
	fmt.Println("\nowner throughput (from the lease audit):")
	if err := repro.WriteOwnerReport(os.Stdout, execs); err != nil {
		log.Fatal(err)
	}
	tracePath := filepath.Join(outDir, "trace.json")
	if err := observer.Tracer().WriteTraceFile(tracePath); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	tf, err := repro.ParseTrace(data)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.ValidateTrace(tf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntrace tracks (campaign workers / MPI ranks / lease owners):")
	if err := repro.WriteTrackReport(os.Stdout, tf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nChrome trace written to %s — open it in chrome://tracing or https://ui.perfetto.dev\n", tracePath)
}

// st2 reopens a store directory for the audit read.
func st2(dir string) *repro.CheckpointStore {
	st, err := repro.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// indent prefixes every line of a response body for the demo printout.
func indent(body []byte, prefix string) string {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// trendBytes renders a worker's grid points as the trend CSV, the bytes
// the distributed guarantee compares.
func trendBytes(pts []repro.GridPoint) string {
	reports, err := repro.BuildTrends(pts, repro.TrendCacheKB)
	if err != nil {
		log.Fatal(err)
	}
	var buf strings.Builder
	if err := repro.WriteTrendCSV(&buf, reports); err != nil {
		log.Fatal(err)
	}
	return buf.String()
}
