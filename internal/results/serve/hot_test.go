package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scenariosResponse is the /scenarios body as one value: scenarioList
// must render exactly what json.MarshalIndent prints for it.
type scenariosResponse struct {
	Count     int         `json:"count"`
	Scenarios []*Scenario `json:"scenarios"`
}

// markupTag holds the three characters the encoder escapes for HTML and
// the line separator it escapes for JavaScript; markupStem is a scenario
// carrying it, so its name holds them too.
const (
	markupTag  = "a&b<c>d\u2028e"
	markupStem = "p2_" + markupTag + "_c128kB_cpu1x_quiet_opt_r0"
)

// markupFixture is fixtureDir plus markupStem, a copy of one of its CSV
// shards.
func markupFixture(tb testing.TB) string {
	tb.Helper()
	dir := fixtureDir(tb)
	shards, err := filepath.Glob(filepath.Join(dir, "p2_base_c128kB_*.csv"))
	if err != nil || len(shards) != 1 {
		tb.Fatalf("fixture shard: %v %v", shards, err)
	}
	data, err := os.ReadFile(shards[0])
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, markupStem+".csv"), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// encoderOracle is the 200 body of a /scenarios, /predict or /trend query
// rendered by the encoder in one piece: json.MarshalIndent of the value
// the handler answers with, plus the newline Encoder.Encode prints. A
// /scenarios list is rendered as the {"count", "scenarios"} object it
// stands for.
func encoderOracle(tb testing.TB, s *Service, p, rawQuery string) string {
	tb.Helper()
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.URL = &url.URL{Path: p, RawQuery: rawQuery}
	var v any
	var err error
	switch p {
	case "/scenarios":
		v, err = s.handleScenarios(r)
		if l, ok := v.(scenarioList); ok {
			v = scenariosResponse{Count: len(l), Scenarios: l}
		}
	case "/predict":
		v, err = s.handlePredict(r)
	case "/trend":
		v, err = s.handleTrend(r)
	default:
		tb.Fatalf("no oracle for %s", p)
	}
	if err != nil {
		tb.Fatalf("%s?%s: %v", p, rawQuery, err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return string(data) + "\n"
}

// TestScenarioListMatchesEncoder holds the /scenarios body assembled from
// the catalog's pre-rendered elements to the encoder's rendering of the
// whole response, for every kind of filter.
func TestScenarioListMatchesEncoder(t *testing.T) {
	s, err := New(markupFixture(t), Options{Obs: obs.New(obs.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		query string
		count int
	}{
		{"", 6},
		{"ranks=2", 4},
		{"tag=opt", 4},
		{"tag=loaded", 2},
		{"tag=" + url.QueryEscape(markupTag), 1},
		{"name=p8_base_c128kB_cpu1x_loaded_serial_r0", 1},
		{"ranks=3", 0},
	} {
		status, body := get(t, h, "/scenarios?"+tc.query)
		if status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", tc.query, status, body)
		}
		want := encoderOracle(t, s, "/scenarios", tc.query)
		if body != want {
			t.Errorf("%q: assembled body differs from the encoder's\n got: %s\nwant: %s", tc.query, body, want)
		}
		var resp scenariosResponse
		if err := json.Unmarshal([]byte(want), &resp); err != nil || resp.Count != tc.count {
			t.Errorf("%q: count %d (%v), want %d", tc.query, resp.Count, err, tc.count)
		}
	}
	if _, body := get(t, h, "/scenarios"); !strings.Contains(body, `"a\u0026b\u003cc\u003ed\u2028e"`) {
		t.Errorf("the markup tag is not HTML- and JavaScript-escaped:\n%s", body)
	}
}

// TestBackendTextMatchesModel holds each entry's kept text to what its
// model renders.
func TestBackendTextMatchesModel(t *testing.T) {
	s, _ := newTestService(t, 0)
	for _, sc := range s.Catalog().Scenarios() {
		e, err := s.cache.get(sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.backends {
			b := &e.backends[i]
			describe, coeffs := b.text()
			if describe != b.model.Describe() || !slices.Equal(coeffs, b.model.Coefficients()) {
				t.Errorf("%s/%s: kept text differs from the model's", sc.Name, backendNames[i])
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status: the
// allocations counted through it are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// TestHotQueryAllocations bounds what a query on a warm cache allocates at
// half the count before render-once and the pooled encoder (in
// parentheses), and a cold load at no more than before.
func TestHotQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, _ := newTestService(t, 0)
	h := s.Handler()
	for _, tc := range []struct {
		target string
		max    float64
	}{
		{"/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=mean_us&q=3000", 27},                          // (54)
		{"/predict?scenario=p2_base_c128kB_cpu1x_quiet_opt_r0&measure=response_us&model=queue&lambda=2&q=3000", 10}, // (21)
		{"/scenarios?ranks=2", 11},                 // (23)
		{"/trend?axis=cache_kb&ranks=2&rep=0", 67}, // (134)
	} {
		r := httptest.NewRequest(http.MethodGet, tc.target, nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, r) // loads the entry and renders its text
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.target, w.status)
		}
		n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, r) })
		t.Logf("%s: %.1f allocs", tc.target, n)
		if n > tc.max {
			t.Errorf("%s: %.1f allocs per request, want <= %.0f", tc.target, n, tc.max)
		}
	}
	// BenchmarkLoadEntry's shard: the text is not rendered at load.
	sc := sweepShard(t, 96, nil)
	n := testing.AllocsPerRun(10, func() {
		if _, err := loadEntry(sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("loadEntry: %.1f allocs", n)
	if n > 210 {
		t.Errorf("loadEntry: %.1f allocs, want <= 210", n)
	}
}

// muxCleanPath is the path http.ServeMux serves an escaped request path
// under; any other spelling is redirected before a handler runs.
func muxCleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}

// FuzzServeQuery sends an arbitrary path and raw query to a service over
// the fixture catalog. Every answer is a status the API documents, a JSON
// body ending in a newline whose length Content-Length gives, and a 200
// /scenarios, /predict or /trend body, which the service appends by hand,
// is the encoder's rendering of the same answer.
func FuzzServeQuery(f *testing.F) {
	s, err := New(markupFixture(f), Options{Obs: obs.New(obs.Options{})})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	for _, ex := range parseDocExamples(f) {
		p, q, _ := strings.Cut(ex.target, "?")
		f.Add(p, q)
	}
	f.Add("/scenarios", "tag="+url.QueryEscape(markupTag)+"&ranks=2")
	f.Add("/trend", "axis=cache_kb&tag="+url.QueryEscape(markupTag))
	f.Add("/trend", "axis=ranks&model=queue")
	// The floats whose spelling the encoder special-cases, an omitted zero
	// lambda and a present dcm, each echoed in "at".
	for _, q := range []string{"-0", "1e-7", "1e21", "5e-324"} {
		f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=mean_us&q="+q)
	}
	f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=throughput_per_s&model=queue&q=3000&lambda=0")
	f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=mean_us&q=3000&lambda=-0&dcm=1e-7")
	// A prediction that overflows, and parameters that are not finite: each
	// was a 500, or a panic in the queue's interpolation, before they were
	// refused.
	f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=mean_us&q=-1e300")
	f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=mean_us&model=queue&q=NaN")
	f.Add("/predict", "scenario="+url.QueryEscape(markupStem)+"&measure=throughput_per_s&model=queue&q=1000&lambda=-Inf")
	f.Fuzz(func(t *testing.T, p, rawQuery string) {
		u := &url.URL{Path: p, RawQuery: rawQuery}
		esc := u.EscapedPath()
		if esc != muxCleanPath(esc) {
			t.Skip("ServeMux redirects the path before any handler runs")
		}
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.URL = u
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.String()
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s?%s: status %d: %s", esc, rawQuery, rec.Code, body)
		}
		if esc == "/metrics" {
			return // text exposition
		}
		if !strings.HasSuffix(body, "\n") || !json.Valid([]byte(body)) {
			t.Fatalf("%s?%s: body is not JSON ending in a newline: %q", esc, rawQuery, body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s?%s: Content-Length %q for a %d-byte body", esc, rawQuery, cl, len(body))
		}
		if (esc == "/scenarios" || esc == "/predict" || esc == "/trend") && rec.Code == http.StatusOK {
			if want := encoderOracle(t, s, esc, rawQuery); body != want {
				t.Fatalf("%s?%s: assembled body differs from the encoder's\n got: %s\nwant: %s", esc, rawQuery, body, want)
			}
		}
	})
}
