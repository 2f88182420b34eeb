package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

func testEnv(t *testing.T, seed int64, traced bool) *env {
	t.Helper()
	e := &env{seed: seed, dir: t.TempDir(), digests: map[string]string{},
		probes: probeShape{mpiProcs: 4, caseSteps: 2, catalogReps: 1, catalogRowsPerQ: 4}}
	if traced {
		e.rec = newRecorder()
	}
	return e
}

// Smoke sizes: the same code paths as the real workloads in a fraction of
// a second each.
func smokeSweep(e *env) *sweepCold {
	s := newSweepCold(e)
	s.sizes = harness.LogSizes(1_000, 2_000, 2)
	return s
}

func smokeCase(e *env) *caseAMR {
	c := newCaseAMR(e)
	c.cfg.App.Mesh.BaseNx, c.cfg.App.Mesh.BaseNy = 48, 12
	c.cfg.App.Mesh.TileNx, c.cfg.App.Mesh.TileNy = 12, 6
	c.cfg.App.Driver.Steps = 4
	c.waitsomeLo, c.waitsomeHi = 0, 1
	return c
}

func smokeComm(e *env) *commP16 {
	c := newCommP16(e)
	c.procs, c.worlds = 4, 2
	return c
}

func smokeServe(e *env, cold bool) *serveLoad {
	s := newServeHot(e)
	if cold {
		s = newServeCold(e)
		s.cacheCap = 2
	}
	s.ranks, s.caches, s.reps, s.rowsPerQ = 2, 2, 2, 4
	s.batch, s.warmRequests = 200, 50
	return s
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	r.push("bench", "pass", 0)
	r.push("campaign", "run", 0)
	r.push("harness", "job", 7)
	r.push("results", "emit", 0)
	r.pop()
	r.pop()
	r.pop()
	r.pop()
	var total tick
	for _, l := range spanLayers {
		total += r.layer(l).self
	}
	if pass := r.layer("bench").total; total != pass {
		t.Errorf("self times sum to %d, the root span lasted %d", total, pass)
	}
	if got := r.layer("harness"); got.self > got.total || got.count != 1 {
		t.Errorf("harness layer %+v", got)
	}
	tf := r.traceFile()
	if err := obs.ValidateTrace(tf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "emit" && ev.Args["request"] != 7 {
			t.Errorf("emit span request = %v, want its job's 7", ev.Args["request"])
		}
	}
}

func TestCatalogAndSequenceFromSeed(t *testing.T) {
	read := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	build := func(seed int64) (map[string][]byte, []string) {
		s := smokeServe(testEnv(t, seed, false), false)
		dir := filepath.Join(s.e.dir, "rows")
		keys, err := s.synthesizeCatalog(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			s.names = append(s.names, k)
		}
		return read(dir), s.sequence(s.requestSet(), seed, 500)
	}
	files1, seq1 := build(3)
	files2, seq2 := build(3)
	files3, seq3 := build(4)
	if len(files1) != 16 || !reflect.DeepEqual(files1, files2) || !reflect.DeepEqual(seq1, seq2) {
		t.Error("the same seed gave different catalog bytes or request sequences")
	}
	if reflect.DeepEqual(files1, files3) || reflect.DeepEqual(seq1, seq3) {
		t.Error("another seed gave the same catalog or request sequence")
	}
}

func TestWorkloadsAtSmokeSize(t *testing.T) {
	for _, w := range []workload{
		{"sweep_cold", func(e *env) instance { return smokeSweep(e) }},
		{"case_amr", func(e *env) instance { return smokeCase(e) }},
		{"comm_p16", func(e *env) instance { return smokeComm(e) }},
		{"serve_hot", func(e *env) instance { return smokeServe(e, false) }},
		{"serve_cold", func(e *env) instance { return smokeServe(e, true) }},
	} {
		t.Run(w.name, func(t *testing.T) {
			e := testEnv(t, 5, true)
			inst := w.make(e)
			if err := inst.setup(); err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.warm(); err != nil {
				t.Fatal(err)
			}
			e.rec.push("bench", "pass", 0)
			pr, err := inst.pass(0)
			e.rec.pop()
			if err != nil {
				t.Fatal(err)
			}
			if pr.failed != 0 || pr.attempted == 0 || len(pr.latMS) == 0 || pr.wallS <= 0 {
				t.Fatalf("pass: %+v", pr)
			}
			m := map[string]float64{}
			if err := inst.derived(m); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(e.dir, "trace.json")
			if err := e.rec.writeTrace(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := obs.ParseTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateTrace(tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Processes()) < 2 {
				t.Errorf("trace names layers %v, want the pass and at least one layer under it", tf.Processes())
			}
		})
	}
}

// TestSweepBudgetSeesBothDirections pins how the budget reads the sweep
// direction back from the shards: euler.Dir is a Stringer, so rows carry
// "X" and "Y", not numbers. Pricing only the Y kernels must still predict
// a cost.
func TestSweepBudgetSeesBothDirections(t *testing.T) {
	e := testEnv(t, 5, true)
	s := smokeSweep(e)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	e.rec.push("bench", "pass", 0)
	pr, err := s.pass(0)
	e.rec.pop()
	if err != nil || pr.failed != 0 {
		t.Fatalf("pass: %+v, %v", pr, err)
	}
	for _, only := range []string{"euler.states_x.ns_per_cell", "euler.states_y.ns_per_cell"} {
		m := map[string]float64{only: 1}
		if err := s.derived(m); err != nil {
			t.Fatal(err)
		}
		if m["budget.predicted_s"] <= 0 || m["cache.sim_misses"] <= 0 {
			t.Errorf("with only %s priced: predicted %v s, %v simulated misses; want both positive", only, m["budget.predicted_s"], m["cache.sim_misses"])
		}
	}
}

// TestMeasureReportsEveryMetric runs the whole loop — set-ups, passes,
// probes — on the smallest workload, untraced and traced.
func TestMeasureReportsEveryMetric(t *testing.T) {
	w := workload{"comm_p16", func(e *env) instance { return smokeComm(e) }}
	for _, c := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := measure(w, testEnv(t, 2, c.traced))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(c.defs) {
			t.Fatalf("traced %v: correct %v, attempted %d, %d metrics, want %d", c.traced, res.Correct, res.Attempted, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %s: %+v (present %v)", d.Name, m, ok)
			}
		}
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	w := workload{"comm_p16", func(e *env) instance { return smokeComm(e) }}
	clean := testEnv(t, 1, false)
	if res, err := measure(w, clean); err != nil || !res.Correct {
		t.Fatalf("clean run: %+v, %v", res, err)
	}
	e := testEnv(t, 1, false)
	e.golden = map[string]string{"comm_p16/missing": "00"}
	for k, v := range clean.digests {
		e.golden[k] = v
	}
	e.golden["comm_p16/ghost"] = "corrupted"
	res, err := measure(w, e)
	if err != nil {
		t.Fatal(err)
	}
	// One mismatch per pass, and one output the run never produced.
	if res.Correct || res.Failed != minPasses+1 {
		t.Errorf("corrupted golden: correct %v, failed %d, want %d", res.Correct, res.Failed, minPasses+1)
	}
}

func TestCorruptedExpectedBodyFailsRequests(t *testing.T) {
	s := smokeServe(testEnv(t, 1, false), false)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	u := s.urls[0]
	s.expected[u] = append([]byte("x"), s.expected[u]...)
	want := 0
	for _, v := range s.urls {
		if v == u {
			want++
		}
	}
	pr, err := s.pass(0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed != want || pr.attempted != len(s.urls) {
		t.Errorf("failed %d of %d, want %d failures (one per request for the corrupted URL)", pr.failed, pr.attempted, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.05}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", steady, "ok"},
		{"slower", []float64{1.10, 1.11, 1.09, 1.10, 1.11}, "regression"},
		{"noisy", []float64{0.8, 1.3, 1.0, 0.7, 1.2}, "unresolved"},
		{"noisy but always better", []float64{0.5, 0.9, 0.7, 0.6, 0.8}, "ok"},
	} {
		if got := verdict(lower, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.05}
	if got := verdict(higher, steady, []float64{0.90, 0.91, 0.89, 0.90, 0.91}); got != "regression" {
		t.Errorf("higher-is-better drop: verdict %q, want regression", got)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// tables from drifting apart, and the tables inside the driver's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: duplicate, or name, unit or direction outside the limits", d)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || !seen["setup_s"] {
		t.Errorf("%d per-layer metrics (limit 128), setup_s present: %v", len(perLayer), seen["setup_s"])
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, []byte(glossary())) {
		t.Error("README.md does not carry `go run ./bench -glossary`")
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil || len(golden) == 0 {
		t.Errorf("golden digests: %d entries, %v", len(golden), err)
	}
}
