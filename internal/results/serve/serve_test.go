package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/results"
)

var update = flag.Bool("update", false, "rewrite the golden response files")

// fixtureDir builds a deterministic mini-campaign rows directory with
// the real shard sinks: three cache sizes under one sweep (CSV), one
// scenario in both formats, and one binary-only scenario.
func fixtureDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	csvSink, err := results.NewCSVShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	binSink, err := results.NewBinShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(sink results.Sink, key string, cacheKB int) {
		slope := 0.25 + 64.0/float64(cacheKB)
		for _, q := range []int{1000, 2000, 4000, 8000} {
			for rep := 0; rep < 3; rep++ {
				mode := "X"
				if rep%2 == 1 {
					mode = "Y"
				}
				row := results.Row{
					results.F("rank", rep%2),
					results.F("q", q),
					results.F("mode", mode),
					results.F("wall_us", 50+slope*float64(q)+10*float64(rep)),
					results.F("l2_dcm", float64(q)/8+100*float64(rep)),
				}
				if err := sink.Emit(key, row); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, kb := range []int{128, 256, 512} {
		emit(csvSink, fmt.Sprintf("p2/base/c%dkB/cpu1x/quiet/opt/r0", kb), kb)
	}
	// One scenario in both formats (the binary sibling must win) and one
	// binary-only scenario.
	emit(csvSink, "p4/base/c128kB/cpu1x/loaded/par/r0", 128)
	emit(binSink, "p4/base/c128kB/cpu1x/loaded/par/r0", 128)
	emit(binSink, "p8/base/c128kB/cpu1x/loaded/serial/r0", 128)
	if err := csvSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := binSink.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func newTestService(t *testing.T, capacity int) (*Service, *obs.Observer) {
	t.Helper()
	o := obs.New(obs.Options{})
	s, err := New(fixtureDir(t), Options{CacheCap: capacity, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

func TestCatalogParsesScenarioNames(t *testing.T) {
	s, _ := newTestService(t, 0)
	c := s.Catalog()
	if got := len(c.Scenarios()); got != 5 {
		var names []string
		for _, sc := range c.Scenarios() {
			names = append(names, sc.Name)
		}
		t.Fatalf("%d scenarios (%v), want 5", got, names)
	}
	sc, ok := c.Lookup("p2_base_c128kB_cpu1x_quiet_opt_r0")
	if !ok {
		t.Fatal("128kB scenario not found")
	}
	for _, want := range []Coord{{"cache_kb", 128}, {"cpu_clock", 1}, {"ranks", 2}, {"rep", 0}} {
		if v, ok := sc.Coord(want.Axis); !ok || v != want.Value {
			t.Errorf("%s = %v (ok=%v), want %v", want.Axis, v, ok, want.Value)
		}
	}
	if !slices.Equal(sc.Tags, []string{"base", "quiet", "opt"}) {
		t.Errorf("tags = %v", sc.Tags)
	}
	// The dual-format scenario serves its binary shard.
	dual, ok := c.Lookup("p4_base_c128kB_cpu1x_loaded_par_r0")
	if !ok {
		t.Fatal("dual-format scenario not found")
	}
	if dual.Format != "bin" || !strings.HasSuffix(dual.File, ".bin") {
		t.Errorf("dual-format scenario served as %q (%s), want bin", dual.Format, dual.File)
	}
	if axes := c.Axes(); strings.Join(axes, ",") != "cache_kb,cpu_clock,ranks,rep" {
		t.Errorf("axes = %v", axes)
	}
}

// TestParseScenarioSchedTokens: a scheduler token in a stem (rows written
// when the scheduler was a grid axis, "par4"/"opt8" for a capped choice) is
// a tag like any other token, so such a directory still serves and
// ?tag=opt selects its scenarios.
func TestParseScenarioSchedTokens(t *testing.T) {
	for _, tc := range []struct {
		stem string
		tags []string
	}{
		{"p2_base_serial_r0", []string{"base", "serial"}},
		{"p2_base_par_r0", []string{"base", "par"}},
		{"p4_base_par4_r0", []string{"base", "par4"}},
		{"p16_base_opt8_r1", []string{"base", "opt8"}},
		{"p2_base_opt2-w8-128_r0", []string{"base", "opt2-w8-128"}},
		{"p2_parallel_optimal_r0", []string{"parallel", "optimal"}},
	} {
		if sc := parseScenario(tc.stem); !slices.Equal(sc.Tags, tc.tags) {
			t.Errorf("%s: tags=%v, want %v", tc.stem, sc.Tags, tc.tags)
		}
	}

	dir := t.TempDir()
	for _, stem := range []string{"p2_base_c128kB_opt_r0", "p4_base_c128kB_par4_r0"} {
		data := "q,wall_us\n1000,10\n2000,20\n4000,40\n"
		if err := os.WriteFile(filepath.Join(dir, stem+".csv"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(dir, Options{Obs: obs.New(obs.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ query, want string }{
		{"tag=opt", "p2_base_c128kB_opt_r0"},
		{"tag=par4", "p4_base_c128kB_par4_r0"},
	} {
		status, body := get(t, s.Handler(), "/scenarios?"+tc.query)
		var resp scenariosResponse
		if err := json.Unmarshal([]byte(body), &resp); status != http.StatusOK || err != nil ||
			resp.Count != 1 || resp.Scenarios[0].Name != tc.want {
			t.Errorf("/scenarios?%s: %d %s, want only %s", tc.query, status, body, tc.want)
		}
	}
	if status, body := get(t, s.Handler(), "/scenarios?sched=opt"); status != http.StatusBadRequest ||
		!strings.Contains(body, "unknown parameter") {
		t.Errorf("/scenarios?sched=opt: %d %s, want 400 unknown parameter", status, body)
	}
}

// TestParseScenarioKernel reads the kernel a scenario is fitted as: its
// one tag that names a kernel, else none.
func TestParseScenarioKernel(t *testing.T) {
	for _, tc := range []struct{ stem, kernel string }{
		{"sweep_states", "states"},
		{"sweep_godunov", "godunov"},
		{"sweep_efm", "efm"},
		{"p1_base_c128kB_efm_r0", "efm"},
		{"p2_base_c128kB_godunov_par_r0", "godunov"},
		{"case", ""},
		{"p3_base_c128kB_r0", ""},
		{"sweep_efm_godunov", ""},
		{"sweep_efm_efm", ""},
		{"sweep_EFM", ""},
		{"sweep_efmflux", ""},
	} {
		if got := parseScenario(tc.stem).kernel; got != tc.kernel {
			t.Errorf("%s: kernel %q, want %q", tc.stem, got, tc.kernel)
		}
	}
}

// get performs one request against the service handler.
func get(t *testing.T, h http.Handler, target string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.String()
}

func TestHandlersGolden(t *testing.T) {
	s, _ := newTestService(t, 0)
	h := s.Handler()
	cases := []struct {
		name   string
		target string
		status int
	}{
		{"predict_fitted", "/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=mean_us&q=3000", http.StatusOK},
		{"predict_sigma", "/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=sigma_us&q=3000", http.StatusOK},
		{"predict_queue", "/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=response_us&model=queue&q=3000&lambda=100", http.StatusOK},
		{"predict_queue_capacity", "/predict?scenario=p8_base_c128kB_cpu1x_loaded_serial_r0&measure=throughput_per_s&model=queue&q=8000", http.StatusOK},
		{"predict_multi", "/predict?scenario=p4_base_c128kB_cpu1x_loaded_par_r0&measure=mean_us&q=3000&dcm=500", http.StatusOK},
		{"scenario_by_coord", "/scenario?cache_kb=512", http.StatusOK},
		{"scenarios_by_tag", "/scenarios?tag=opt", http.StatusOK},
		{"trend_cache", "/trend?axis=cache_kb&tag=opt", http.StatusOK},
		{"trend_queue", "/trend?axis=cache_kb&model=queue&tag=opt", http.StatusOK},
		{"healthz", "/healthz", http.StatusOK},
		{"err_unknown_param", "/predict?scenario=x&measure=mean_us&q=1&bogus=1", http.StatusBadRequest},
		{"err_unknown_scenario", "/predict?scenario=nope&measure=mean_us&q=1", http.StatusNotFound},
		{"err_bad_measure", "/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=bogus&q=1", http.StatusUnprocessableEntity},
		{"err_saturated", "/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=response_us&model=queue&q=8000&lambda=1000000", http.StatusUnprocessableEntity},
		{"err_no_selector", "/scenario", http.StatusBadRequest},
		{"err_bad_axis", "/trend?axis=bogus", http.StatusNotFound},
		{"err_no_endpoint", "/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, h, tc.target)
			if status != tc.status {
				t.Fatalf("status = %d, want %d; body:\n%s", status, tc.status, body)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run go test -run Golden -update ./internal/results/serve to regenerate)", err)
			}
			if body != string(want) {
				t.Errorf("response drifted from %s:\n got: %s\nwant: %s", golden, body, want)
			}
		})
	}
}

// copyFixture copies a rows directory's files, minus those with the
// skipped extension, into a fresh directory.
func copyFixture(t *testing.T, src, skipExt string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == skipExt {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestResponsesByteIdenticalAcrossInstances(t *testing.T) {
	// Two independent services, the second over a copy of the first's
	// rows directory at another path, must serve identical bytes: the
	// determinism contract the API document leans on.
	dir := fixtureDir(t)
	s1, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(copyFixture(t, dir, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{
		"/",
		"/predict?scenario=p2_base_c256kB_cpu1x_quiet_opt_r0&measure=mean_us&q=5000",
		"/trend?axis=cache_kb&tag=opt",
		"/scenario?name=p8_base_c128kB_cpu1x_loaded_serial_r0",
	}
	for _, target := range targets {
		_, a := get(t, s1.Handler(), target)
		// Query s1 twice: a cache hit must not change the bytes.
		_, aAgain := get(t, s1.Handler(), target)
		_, b := get(t, s2.Handler(), target)
		if a != aAgain {
			t.Errorf("%s: cache hit changed the response bytes", target)
		}
		if a != b {
			t.Errorf("%s: responses differ across instances:\n%s\nvs\n%s", target, a, b)
		}
	}
}

func TestBinAndCSVShardsServeIdenticalModels(t *testing.T) {
	// The dual-format scenario decodes from its binary shard; a catalog
	// over a copy of the fixture with the .bin files removed serves the
	// same scenario from CSV. Fitted coefficients must agree exactly.
	dir := fixtureDir(t)
	csvOnly := copyFixture(t, dir, ".bin")
	sBin, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sCSV, err := New(csvOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const target = "/predict?scenario=p4_base_c128kB_cpu1x_loaded_par_r0&measure=mean_us&q=3333"
	_, a := get(t, sBin.Handler(), target)
	_, b := get(t, sCSV.Handler(), target)
	if a != b {
		t.Errorf("binary-served and CSV-served predictions differ:\n%s\nvs\n%s", a, b)
	}
}

func TestCacheAccounting(t *testing.T) {
	s, o := newTestService(t, 2)
	h := s.Handler()
	reg := o.Metrics()
	names := []string{
		"p2_base_c128kB_cpu1x_quiet_opt_r0",
		"p2_base_c256kB_cpu1x_quiet_opt_r0",
		"p2_base_c512kB_cpu1x_quiet_opt_r0",
	}
	predict := func(name string) {
		status, body := get(t, h, "/predict?scenario="+name+"&measure=mean_us&q=2000")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
	}
	// Three loads through a 2-entry cache: all misses, one eviction.
	for _, n := range names {
		predict(n)
	}
	if got := reg.Counter("resultsd_cache_misses_total").Value(); got != 3 {
		t.Errorf("misses = %d, want 3", got)
	}
	if got := reg.Counter("resultsd_cache_hits_total").Value(); got != 0 {
		t.Errorf("hits = %d, want 0", got)
	}
	if got := reg.Counter("resultsd_cache_evictions_total").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := s.cache.len(); got != 2 {
		t.Errorf("resident entries = %d, want 2", got)
	}
	// The two resident scenarios hit; the evicted one misses and reloads.
	predict(names[2])
	predict(names[1])
	predict(names[0])
	if got := reg.Counter("resultsd_cache_hits_total").Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := reg.Counter("resultsd_cache_misses_total").Value(); got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
	if got := reg.Histogram("resultsd_scenario_load_us", obs.LatencyBucketsUS).Count(); got != 4 {
		t.Errorf("load histogram count = %d, want 4 (one per actual decode)", got)
	}
	// /metrics exposes all of it.
	status, body := get(t, h, "/metrics")
	if status != http.StatusOK || !strings.Contains(body, "resultsd_cache_hits_total 2") {
		t.Errorf("metrics exposition missing cache counters:\n%s", body)
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Hammer one service from many goroutines (run under -race in CI).
	// The singleflight load means each scenario decodes exactly once even
	// though every goroutine asks for every scenario.
	s, o := newTestService(t, 0)
	h := s.Handler()
	var names []string
	for _, sc := range s.Catalog().Scenarios() {
		names = append(names, sc.Name)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := names[(g+i)%len(names)]
				status, body := get(t, h, "/predict?scenario="+name+"&measure=mean_us&q=4000")
				if status != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d: %s", name, status, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	loads := o.Metrics().Histogram("resultsd_scenario_load_us", obs.LatencyBucketsUS).Count()
	if loads != uint64(len(names)) {
		t.Errorf("%d shard decodes for %d scenarios; singleflight should collapse them", loads, len(names))
	}
}

func TestConcurrentMissesShareTheScratchPool(t *testing.T) {
	// A one-entry cache turns nearly every query into a load, so loads run
	// at once on scratches the pool passes from one to the next (run under
	// -race in CI). Every body must be the one a lone query gets.
	s, _ := newTestService(t, 1)
	h := s.Handler()
	var targets []string
	want := map[string]string{}
	for _, sc := range s.Catalog().Scenarios() {
		for _, q := range []string{"1000", "4000"} {
			target := "/predict?scenario=" + sc.Name + "&measure=mean_us&dcm=700&q=" + q
			status, body := get(t, h, target)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, status, body)
			}
			targets = append(targets, target)
			want[target] = body
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*20)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := targets[(g*7+i)%len(targets)]
				if _, body := get(t, h, target); body != want[target] {
					errs <- fmt.Sprintf("%s: %s, alone %s", target, body, want[target])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestIndexAndBackendsAgree(t *testing.T) {
	s, _ := newTestService(t, 0)
	status, body := get(t, s.Handler(), "/")
	if status != http.StatusOK {
		t.Fatalf("index status %d", status)
	}
	var idx indexResponse
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Service != "resultsd" || idx.Scenarios != 5 {
		t.Errorf("index = %+v", idx)
	}
	if strings.Join(idx.Backends, ",") != "fitted,queue" {
		t.Errorf("backends = %v", idx.Backends)
	}
	// Every advertised backend answers its advertised measures at a
	// benign point, and rejects nothing it advertises.
	sc, _ := s.catalog.Lookup("p2_base_c128kB_cpu1x_quiet_opt_r0")
	e, err := s.cache.get(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range idx.Backends {
		i, ok := backendIndex(b)
		if !ok || e.backends[i].model == nil {
			t.Fatalf("backend %q advertised but not built", b)
		}
		m := e.backends[i].model
		for _, meas := range m.Measures() {
			if _, err := m.Predict(meas, Point{Q: 2000, Lambda: 10}); err != nil {
				t.Errorf("%s/%s: %v", b, meas, err)
			}
		}
	}
	// POST is rejected everywhere.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", rec.Code)
	}
}

func TestUnservableShardIs422(t *testing.T) {
	// A scenario whose rows have a single distinct q cannot be fitted:
	// the query must fail loudly, and the failure must not poison the
	// cache (a later fixed shard would reload).
	dir := t.TempDir()
	sink, err := results.NewCSVShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		if err := sink.Emit("p2/flat/r0", results.Row{
			results.F("q", 1000),
			results.F("wall_us", 10.0+float64(rep)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, body := get(t, s.Handler(), "/predict?scenario=p2_flat_r0&measure=mean_us&q=1000")
	if status != http.StatusUnprocessableEntity || !strings.Contains(body, "distinct") {
		t.Errorf("status = %d, body = %s", status, body)
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("failed load cached: %d resident entries", got)
	}
}

func TestKernelFormFailureIsNotFallback(t *testing.T) {
	// One sample per q has no spread: a zero sigma has no logarithm, so
	// States' power-law sigma cannot be fitted. The scenario that names
	// the kernel is unservable with that error; the same rows under a key
	// naming no kernel get the AIC-best fit.
	dir := t.TempDir()
	sink, err := results.NewCSVShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sweep/states", "sweep/plain"} {
		for _, q := range []int{1000, 2000, 4000} {
			if err := sink.Emit(key, results.Row{results.F("q", q), results.F("wall_us", 0.5*float64(q))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, body := get(t, s.Handler(), "/predict?scenario=sweep_states&measure=mean_us&q=1000")
	if status != http.StatusUnprocessableEntity || !strings.Contains(body, "sigma fit") || !strings.Contains(body, "power law") {
		t.Errorf("sweep_states: status = %d, body = %s", status, body)
	}
	if status, body = get(t, s.Handler(), "/predict?scenario=sweep_plain&measure=mean_us&q=1000"); status != http.StatusOK {
		t.Errorf("sweep_plain: status = %d, body = %s", status, body)
	}
}

func TestOpenPrefersRowsSubdirOverReportCSVs(t *testing.T) {
	// A figures output directory holds rendered reports (trend.csv) next
	// to rows/; the shards under rows/ are the catalog, not the reports.
	out := t.TempDir()
	rows := filepath.Join(out, "rows")
	if err := os.MkdirAll(rows, 0o755); err != nil {
		t.Fatal(err)
	}
	sink, err := results.NewCSVShardSink(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1000, 2000, 4000} {
		row := results.Row{results.F("q", q), results.F("wall_us", 50+0.75*float64(q))}
		if err := sink.Emit("p2/base/c128kB/cpu1x/quiet/opt/r0", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "trend.csv"), []byte("axis,c0,c1\n128,60,0.75\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != rows {
		t.Errorf("catalog dir = %s, want %s", c.Dir(), rows)
	}
	if _, ok := c.Lookup("trend"); ok {
		t.Error("rendered report trend.csv surfaced as a scenario")
	}
	if _, ok := c.Lookup("p2_base_c128kB_cpu1x_quiet_opt_r0"); !ok {
		t.Error("shard under rows/ missing from the catalog")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("empty dir opened")
	}
	if _, err := New(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Error("missing dir opened")
	}
}

// checkTokens holds parseScenario to its contract on any stem: every
// "_"-separated token is accounted for exactly once, as a coordinate that
// spells back to that token or as a tag. No token reads as a wrong number.
func checkTokens(t *testing.T, stem string, sc *Scenario) {
	t.Helper()
	left := map[string]int{}
	for _, tok := range strings.Split(stem, "_") {
		left[tok]++
	}
	take := func(tok, as string) {
		if left[tok] == 0 {
			t.Errorf("%q: %s %q is not one of its tokens", stem, as, tok)
		}
		left[tok]--
	}
	spell := map[string]func(float64) string{
		"ranks":     func(v float64) string { return "p" + strconv.FormatFloat(v, 'f', -1, 64) },
		"cache_kb":  func(v float64) string { return "c" + strconv.FormatFloat(v, 'f', -1, 64) + "kB" },
		"cpu_clock": func(v float64) string { return fmt.Sprintf("cpu%gx", v) },
		"rep":       func(v float64) string { return "r" + strconv.FormatFloat(v, 'f', -1, 64) },
	}
	for _, c := range sc.Coords {
		take(spell[c.Axis](c.Value), c.Axis+" coordinate")
	}
	for _, tag := range sc.Tags {
		take(tag, "tag")
	}
	for tok, n := range left {
		if n != 0 {
			t.Errorf("%q: token %q is neither a coordinate nor a tag", stem, tok)
		}
	}
	var kernels []string
	for _, tag := range sc.Tags {
		if perfmodel.IsKernel(tag) {
			kernels = append(kernels, tag)
		}
	}
	want := ""
	if len(kernels) == 1 {
		want = kernels[0]
	}
	if sc.kernel != want {
		t.Errorf("%q: kernel = %q from kernel tags %v, want %q", stem, sc.kernel, kernels, want)
	}
}

// FuzzParseScenario drives the catalog's scenario-name parser two ways.
// A stem built from the campaign axis constructors plus an mpi.FormatSched
// token (as rows written when the scheduler was a grid axis carry), named
// by the shard sink, parses back to the coordinates that built it whenever
// %g prints the clock scale without an exponent, keeps the scheduler token
// as a tag, and reads as the kernel its flux key names. Any stem, built or arbitrary,
// satisfies checkTokens (which holds the kernel to the one tag naming a
// known kernel, or none), and nothing panics.
func FuzzParseScenario(f *testing.F) {
	sink, err := results.NewCSVShardSink(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fluxes := []string{"godunov", "efm", "states"}
	modes := []mpi.SchedulerMode{mpi.Serial, mpi.ConservativeParallel, mpi.OptimisticParallel}
	// Seeds: the fixture's scenarios, and the stems of
	// TestParseScenarioSchedTokens.
	f.Add(uint16(2), uint32(128), 1.0, uint8(1), uint8(2), uint16(0), uint8(0), "p2_base_c128kB_cpu1x_quiet_opt_r0")
	f.Add(uint16(4), uint32(128), 1.0, uint8(0), uint8(1), uint16(0), uint8(0), "p4_base_c128kB_cpu1x_loaded_par_r0")
	f.Add(uint16(8), uint32(128), 0.5, uint8(2), uint8(0), uint16(0), uint8(0), "p8_base_c128kB_cpu1x_loaded_serial_r0")
	f.Add(uint16(16), uint32(1024), 2.5, uint8(0), uint8(2), uint16(8), uint8(1), "p16_base_opt8_r1")
	f.Add(uint16(2), uint32(512), 1e-05, uint8(1), uint8(2), uint16(2), uint8(0), "p2_base_opt2-w8-128_r0")
	f.Add(uint16(2), uint32(512), 4.0, uint8(1), uint8(1), uint16(4), uint8(3), "p2_parallel_optimal_r0")
	f.Add(uint16(2), uint32(512), 4.0, uint8(1), uint8(1), uint16(0), uint8(3), "p2_serial4_par0_opt08_p007_cpu1.50x_r1e3")
	f.Add(uint16(1), uint32(128), 1.0, uint8(1), uint8(0), uint16(0), uint8(0), "sweep_efm")
	f.Add(uint16(3), uint32(256), 2.0, uint8(2), uint8(1), uint16(0), uint8(1), "sweep_efm_godunov_states_efm")
	f.Fuzz(func(t *testing.T, procs uint16, kb uint32, scale float64, flux, mode uint8, maxRanks uint16, rep uint8, raw string) {
		sched := mpi.FormatSched(modes[int(mode)%len(modes)], int(maxRanks))
		fluxKey := campaign.FluxAxis(fluxes[int(flux)%len(fluxes)]).Values[0].Key
		key := strings.Join([]string{
			campaign.RankAxis(int(procs)).Values[0].Key,
			"base",
			campaign.CacheAxis(int(kb)).Values[0].Key,
			campaign.CPUClockAxis(scale).Values[0].Key,
			fluxKey,
			sched,
			fmt.Sprintf("r%d", rep),
		}, "/")
		stem := shardStem(strings.TrimSuffix(filepath.Base(sink.ShardPath(key)), ".csv"))
		sc := parseScenario(stem)
		checkTokens(t, stem, sc)
		if sc.kernel != fluxKey {
			t.Errorf("%s -> %q: kernel %q, want %q", key, stem, sc.kernel, fluxKey)
		}
		if strings.Trim(fmt.Sprintf("%g", scale), "0123456789.") == "" {
			want := []Coord{{"cache_kb", float64(kb)}, {"cpu_clock", scale}, {"ranks", float64(procs)}, {"rep", float64(rep)}}
			if !slices.Equal(sc.Coords, want) || !sc.HasTag(sched) {
				t.Errorf("%s -> %q: coords %v tags %v, want %v and tag %q", key, stem, sc.Coords, sc.Tags, want, sched)
			}
		}
		checkTokens(t, raw, parseScenario(raw))
	})
}
