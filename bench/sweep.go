package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/euler"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/results/store"
)

// sweepCold is the sweep_cold workload: the trend campaign the way
// cmd/figures -fig trend -workers 1 -rowformat both runs it — one
// campaign.Run over harness.StreamJobs plus the trend render job, a fresh
// store and fresh shard sinks per pass, no observer.
//
// A pass is a third of the ROADMAP's reference campaign (one rank, one
// repetition) so that a run of -seconds holds at least three passes and
// can report their median; the Q range still crosses both modelled cache
// capacities and all three component kernels run.
type sweepCold struct {
	e *env
	// sizes, reps and procs scale the pass; tests shrink them.
	sizes  []int
	reps   int
	procs  int
	caches []int

	base     harness.SweepConfig
	jobs     []campaign.Job
	keys     []string
	lastDir  string // the last pass's directory, kept for derived
	lastRows map[string][]results.Row
}

var sweepFluxes = []string{"states", "godunov", "efm"}

func newSweepCold(e *env) *sweepCold {
	return &sweepCold{e: e, sizes: harness.LogSizes(1_000, 60_000, 6), reps: 1, procs: 1, caches: []int{128, 1024}}
}

func (s *sweepCold) setup() error {
	s.base = harness.DefaultSweep(harness.KernelStates)
	s.base.Sizes = s.sizes
	s.base.Reps = s.reps
	s.base.World.Procs = s.procs
	s.base.World.Seed = s.e.seed
	jobs, keys, err := trendCampaign(s.base, s.grid(), func() string { return s.lastDir })
	s.jobs, s.keys = jobs, keys
	return err
}

func (s *sweepCold) grid() campaign.Grid {
	return campaign.Grid{
		Base:         s.base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(s.caches...), campaign.FluxAxis(sweepFluxes...)},
		Replications: 1,
		BaseSeed:     s.e.seed,
	}
}

// trendFile is one rendered output of the trend job.
type trendFile struct {
	Name string
	Data []byte
}

// trendCampaign builds the job graph of cmd/figures -fig trend: one
// streaming job per grid scenario and the checkpointable trend job that
// renders trend.csv and trend.txt into outDir() from every grid point.
func trendCampaign(base harness.SweepConfig, grid campaign.Grid, outDir func() string) (jobs []campaign.Job, keys []string, err error) {
	jobs, err = harness.StreamJobs(base, grid)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range jobs {
		keys = append(keys, j.Key)
	}
	write := func(files []trendFile) error {
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(outDir(), f.Name), f.Data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	after := append([]string(nil), keys...)
	jobs = append(jobs, campaign.Job{
		Key:   "trend",
		After: after,
		Hash:  store.Hash("bench-trend-v1", base, keys),
		Encode: func(v any) ([]byte, error) {
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(v.([]trendFile))
			return buf.Bytes(), err
		},
		Decode: func(_ context.Context, data []byte) (any, error) {
			var files []trendFile
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&files); err != nil {
				return nil, err
			}
			return files, write(files)
		},
		Run: func(_ context.Context, deps map[string]any) (any, error) {
			points := make([]harness.GridPoint, len(after))
			for i, key := range after {
				points[i] = deps[key].(harness.GridPoint)
			}
			reports, err := harness.BuildTrends(points, harness.TrendCacheKB)
			if err != nil {
				return nil, err
			}
			var files []trendFile
			for _, out := range []struct {
				name  string
				write func(io.Writer, []*harness.TrendReport) error
			}{{"trend.csv", harness.WriteTrendCSV}, {"trend.txt", harness.WriteTrendReport}} {
				var buf bytes.Buffer
				if err := out.write(&buf, reports); err != nil {
					return nil, err
				}
				files = append(files, trendFile{out.name, buf.Bytes()})
			}
			return files, write(files)
		},
	})
	return jobs, keys, nil
}

func (s *sweepCold) warm() error { return nil }

// rowSinks are the CSV and binary shard sinks over one directory, teed as
// -rowformat both does.
type rowSinks struct {
	results.Sink
	csv *results.CSVShardSink
	bin *results.BinShardSink
}

func openRowSinks(dir string) (*rowSinks, error) {
	csvSink, err := results.NewCSVShardSink(dir)
	if err != nil {
		return nil, err
	}
	binSink, err := results.NewBinShardSink(dir)
	if err != nil {
		return nil, err
	}
	return &rowSinks{results.NewTee(csvSink, binSink), csvSink, binSink}, nil
}

func (s *sweepCold) pass(i int) (passResult, error) {
	var pr passResult
	if s.lastDir != "" {
		if err := os.RemoveAll(s.lastDir); err != nil {
			return pr, err
		}
	}
	dir, err := scratch(s.e.dir, "sweep-")
	if err != nil {
		return pr, err
	}
	s.lastDir = dir

	t0 := now()
	st, err := store.Open(filepath.Join(dir, ".cache"))
	if err != nil {
		return pr, err
	}
	sink, err := openRowSinks(filepath.Join(dir, "rows"))
	if err != nil {
		return pr, err
	}
	cfg := campaign.Config{Workers: 1, Store: traceStore(st, s.e.rec), Sink: traceSink(sink, s.e.rec)}
	s.e.rec.push("campaign", "run", 0)
	res, runErr := campaign.Run(context.Background(), cfg, tracedJobs(s.jobs, s.e.rec))
	s.e.rec.pop()
	if err := sink.Close(); err != nil {
		return pr, err
	}
	pr.wallS = since(t0)

	for _, r := range res {
		pr.latMS = append(pr.latMS, r.Elapsed.Seconds()*1e3)
		pr.check(r.Err == nil && !r.Cached, "job %s: err %v, cached %v", r.Key, r.Err, r.Cached)
	}
	if runErr != nil && pr.failed == 0 {
		return pr, runErr
	}

	// Output checks: both formats of every shard decode to the same rows,
	// and for seed 1 every output byte equals the golden digest.
	s.lastRows = map[string][]results.Row{}
	for _, key := range s.keys {
		csvPath, binPath := sink.csv.ShardPath(key), sink.bin.ShardPath(key)
		csvRows, err := results.ReadRowsFile(csvPath)
		if err != nil {
			pr.check(false, "%s: %v", key, err)
			continue
		}
		binRows, err := results.ReadRowsFile(binPath)
		if err != nil {
			pr.check(false, "%s: %v", key, err)
			continue
		}
		pr.check(len(binRows) > 0 && rowsEqual(csvRows, binRows), "%s: csv and bin shards decode to different rows", key)
		s.lastRows[key] = binRows
		for _, path := range []string{csvPath, binPath} {
			pr.check(s.checkFile("sweep_cold/rows/"+filepath.Base(path), path), "%s differs from the golden digest", path)
		}
	}
	for _, name := range []string{"trend.csv", "trend.txt"} {
		pr.check(s.checkFile("sweep_cold/"+name, filepath.Join(dir, name)), "%s is missing or differs from the golden digest", name)
	}
	return pr, nil
}

// checkFile digests a file and compares it with the golden entry; a file
// that cannot be read fails the check.
func (s *sweepCold) checkFile(name, path string) bool {
	data, err := os.ReadFile(path)
	return err == nil && s.e.checkDigest(name, sha256Hex(data))
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// rowsEqual compares decoded rows field by field. CSV decodes a float
// that prints as an integer ("12") to int64 where the binary format keeps
// float64, so numbers compare by value.
func rowsEqual(a, b []results.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			fa, fb := a[i][j], b[i][j]
			if fa.Name != fb.Name {
				return false
			}
			va, oka := fa.Float()
			vb, okb := fb.Float()
			if oka != okb || (oka && va != vb) || (!oka && fa.Value != fb.Value) {
				return false
			}
		}
	}
	return true
}

// derived reads the per-kernel job time off the spans, sums the simulated
// misses of every row the last pass emitted, and composes the pass from
// the probes: cells each kernel processed times the kernel's cost per
// cell, plus the per-job and per-row costs of the layers around them.
func (s *sweepCold) derived(m map[string]float64) error {
	passes := float64(s.e.rec.named("bench", "pass").count)
	for _, k := range sweepFluxes {
		m["harness.sweep."+k+".s"] = s.e.rec.named("harness", "sweep."+k).total.seconds() / passes
	}
	var misses, rows, kernelNS float64
	for _, key := range s.keys {
		k := kernelOfKey(key)
		for _, row := range s.lastRows[key] {
			var q float64
			dir := "_x"
			for _, f := range row {
				v, _ := f.Float()
				switch f.Name {
				case "l2_dcm":
					misses += v
				case "q":
					q = v
				case "mode":
					// euler.Dir is a Stringer: shards carry "X" or "Y".
					if f.Value == euler.Y.String() {
						dir = "_y"
					}
				}
			}
			rows++
			// Every monitored invocation is preceded by its share of the
			// patch initialisation (one per X and Y pair); a flux
			// invocation also by the unmonitored States call feeding it.
			perCell := m["euler.states"+dir+".ns_per_cell"] + m["euler.init.ns_per_cell"]/2
			if k != "states" {
				perCell += m["euler."+k+dir+".ns_per_cell"]
			}
			kernelNS += q * perCell
		}
	}
	m["cache.sim_misses"] = misses
	jobs := float64(len(s.keys))
	m["budget.predicted_s"] = kernelNS/1e9 +
		rows*(m["results.csv_emit.ns_per_row"]+m["results.bin_emit.ns_per_row"])/1e9 +
		jobs*(m["harness.fit_models.ms"]/1e3+(m["store.put.us"]+m["store.get.us"]+m["campaign.null_job.us"])/1e6) +
		m["harness.trend_build.ms"]/1e3
	return nil
}

func (s *sweepCold) close() error {
	if s.lastDir == "" {
		return nil
	}
	err := os.RemoveAll(s.lastDir)
	s.lastDir = ""
	return err
}
