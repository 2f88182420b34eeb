package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef describes one metric of the benchmark. The tables below are
// the single source BENCHMARK.json (-manifest), the README glossary and
// -compare are written from.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Exact marks a count that must repeat bit for bit for a fixed seed.
	Exact bool
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move, written down before anyone measures.
	Moves string
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"sweep_cold", "the reference trend campaign on one worker with a cold store: cache model and euler kernels do nearly all the work, scheduler and serving none"},
	{"case_amr", "the paper's shock-interface AMR application under all three rank schedulers: ghost exchange, Waitsome, proxies and TAU on the path, kernels about half"},
	{"comm_p16", "16-rank ghost, wildcard and collective bodies under all three schedulers: mpi does nearly all the work and the kernels none, opt drives checkpoint and rollback"},
	{"serve_hot", "resultsd over loopback, closed loop, every model resident: handler, JSON encoding, catalog match and net/http do the work, decode and fit none"},
	{"serve_cold", "resultsd with a model cache 16 times smaller than the working set: shard decode, model fit and eviction do the work, handler and JSON are noise"},
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one: a workload is a fixed
// batch of operations (campaign jobs, case-study runs, simulated worlds,
// HTTP requests), wall_s is the time one pass over the batch takes,
// p50_ms the median latency of an operation over all passes, and alloc_mb
// what one pass allocates.
//
// The timing bounds are the widest the driver allows. On the shared
// two-core reference container a neighbour's burst slows whole runs by a
// fifth for a minute at a time; over ten-seed result sets the
// interquartile spread of wall_s and p50_ms was 1-5% of the median in
// quiet hours and 6-14% in busy ones, and a bound must hold in both.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	mvSweep    = "wall_s on sweep_cold"
	mvSweepAMR = "wall_s on sweep_cold and case_amr"
	mvAMR      = "wall_s on case_amr"
	mvCommOpt  = "wall_s on comm_p16, and work.p99_ms there (the opt worlds are its slowest)"
	mvComm     = "wall_s on comm_p16"
	mvHot      = "wall_s and p50_ms on serve_hot"
	mvCold     = "wall_s and p50_ms on serve_cold"
	mvNone     = "none expected to be visible"
)

var kernelVars = []string{"states_x", "states_y", "godunov_x", "godunov_y", "efm_x", "efm_y"}

// perLayer are the metrics of single layers, printed by a traced run.
// The probes time calls into each layer's public functions at a fixed
// shape; the rest are read off the traced workload's spans and outputs
// and are 0 where the workload does not reach the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better, moves string, exact bool) {
		d = append(d, metricDef{Name: name, Unit: unit, Better: better, Exact: exact, Moves: moves})
	}
	lower := func(name, unit, moves string) { add(name, unit, "lower", moves, false) }

	lower("cache.seq.ns_per_access", "ns", mvSweep)
	lower("cache.strided.ns_per_access", "ns", mvSweep)
	lower("cache.hit.ns_per_access", "ns", mvSweep)
	lower("cache.checkpoint.us", "us", mvCommOpt)
	add("cache.sim_misses", "count", "lower", "a simulated statistic: must not move under a host-speed change", true)

	for _, k := range kernelVars {
		lower("euler."+k+".ns_per_cell", "ns", mvSweepAMR)
	}
	for _, k := range kernelVars {
		add("euler."+k+".accesses_per_cell", "count", "lower", "a simulated statistic: must not move under a host-speed change", true)
	}
	for _, k := range kernelVars {
		lower("euler."+k+".cache_share_pct", "%", "says how much of the kernel a faster cache model can save")
	}
	add("euler.godunov.newton_iters_per_face", "count", "lower", "a simulated statistic: must not move under a host-speed change", true)
	lower("euler.init.ns_per_cell", "ns", mvSweep)

	for _, k := range []string{"states", "godunov", "efm"} {
		lower("harness.sweep."+k+".s", "s", mvSweep+" (their sum is nearly the whole)")
	}
	lower("harness.fit_models.ms", "ms", mvSweep)
	lower("harness.trend_build.ms", "ms", mvSweep)
	for _, m := range schedModes {
		lower("harness.case."+m.String()+".ms", "ms", mvAMR)
	}

	lower("platform.checkpoint.us", "us", mvCommOpt)

	for _, b := range bodies {
		for _, m := range schedModes {
			lower("mpi."+b.name+"."+m.String()+".ms", "ms", mvComm)
		}
	}
	for _, m := range schedModes {
		lower("mpi.compute."+m.String()+".ms", "ms", mvAMR)
	}
	for _, b := range bodies {
		for _, m := range schedModes {
			lower("mpi."+b.name+"."+m.String()+".allocs_per_run", "count", mvComm)
		}
	}
	lower("mpi.wildcard.opt.rollbacks", "count", mvCommOpt)
	add("mpi.ghost.opt.pipelined_ops", "count", "higher", mvComm, false)
	add("mpi.coll.opt.spec_coll_hits", "count", "higher", mvComm, false)
	add("mpi.wildcard.opt.useful_ratio", "ratio", "higher", mvCommOpt, false)

	lower("amr.ghost_exchange.us_per_level", "us", mvAMR)
	lower("tau.start_stop.ns", "ns", mvAMR)
	lower("core.monitor.ns_per_invocation", "ns", mvAMR)

	lower("campaign.null_job.us", "us", mvNone)
	lower("campaign.grid_expand.us_per_scenario", "us", mvNone)
	lower("campaign.resume.ms", "ms", "what a resumed user waits for; no workload resumes")

	lower("results.csv_emit.ns_per_row", "ns", mvSweep+" (under 1%)")
	lower("results.bin_emit.ns_per_row", "ns", mvSweep+" (under 1%)")
	lower("results.csv_decode.us_per_shard", "us", "nothing while a bin sibling exists")
	lower("results.bin_decode.us_per_shard", "us", mvCold)
	add("results.csv_bytes_per_row", "count", "lower", mvNone, true)
	add("results.bin_bytes_per_row", "count", "lower", mvNone, true)

	lower("store.put.us", "us", "campaign.resume.ms; "+mvSweep+" (under 1%)")
	lower("store.get.us", "us", "campaign.resume.ms")
	lower("store.hash.us", "us", mvNone)
	lower("lease.claim_release.us", "us", "no workload runs distributed; tracked so a regression is visible")

	lower("perfmodel.fit_select.us", "us", mvCold)
	lower("perfmodel.multilin.us", "us", mvCold)

	lower("serve.predict_hit.us", "us", mvHot)
	lower("serve.scenarios.us", "us", mvHot)
	lower("serve.trend_hit.us", "us", mvHot)
	lower("serve.predict_miss.us", "us", mvCold)
	lower("serve.catalog_open.ms", "ms", "setup_s on serve_hot and serve_cold")
	lower("serve.http_overhead.us", "us", mvHot)
	add("serve.cache.hit_ratio", "ratio", "higher", mvCold, false)
	lower("serve.cache.evictions", "count", mvCold)

	lower("obs.span.ns", "ns", mvHot)
	lower("obs.overhead_pct.comm", "%", "nothing: the observer is off in campaigns")
	lower("obs.overhead_pct.serve", "%", mvHot+" (resultsd runs with the observer on)")

	lower("work.wall_s", "s", "the traced pass; against wall_s it gives the tracing overhead")
	lower("work.p99_ms", "ms", "the 99th percentile of operation latency over the traced passes; busy hours moved it by a third, too much for a bound")
	lower("work.peak_rss_mb", "MB", "VmHWM of the run's process; its run-to-run spread (18% on comm_p16) is too wide for a bound")
	lower("work.spans", "count", "spans the traced passes recorded")
	for _, l := range spanLayers {
		lower("self."+l+".s", "s", "host time one traced pass spends in the layer itself")
	}
	lower("budget.predicted_s", "s", "the pass composed from the probes; 0 where no composition is defined")
	lower("budget.error_pct", "%", "a large error means an unmeasured layer")
	return d
}

// glossary renders the metric tables as the Markdown the README carries.
func glossary() string {
	var b strings.Builder
	b.WriteString("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.0f%% |\n", d.Name, d.Unit, d.Better, d.Bound*100)
	}
	b.WriteString("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = " Exact: repeats bit for bit for a fixed seed."
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s.%s |\n", d.Name, d.Unit, d.Better, d.Moves, exact)
	}
	return b.String()
}

// manifest renders BENCHMARK.json from the tables.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return append(data, '\n'), nil
}
