package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/serve"
)

// serveLoad is the serve_hot and serve_cold workloads: resultsd wired as
// cmd/resultsd wires it (observer on, the service's handler behind
// net/http on a loopback listener) over a synthesized catalog, driven by
// a closed loop of keep-alive connections from this process. Callers of
// a model service wait for their reply, so the loop is closed: each
// connection sends its next request when the previous reply has been
// read and checked.
type serveLoad struct {
	e *env
	// shape of the catalog and the load; tests shrink them.
	ranks, caches, reps int // scenarios = ranks x caches x reps
	rowsPerQ            int // rows per scenario = len(catalogQs) x rowsPerQ
	cacheCap            int
	conns               int
	batch               int  // requests per pass
	predictOnly         bool // serve_cold: every request a /predict
	warmRequests        int

	dir    string
	svc    *serve.Service
	server *http.Server
	served chan error
	base   string
	names  []string
	// expected maps each URL of the finite request set to the body a
	// second Service over a copy of the catalog answers.
	expected map[string][]byte
	// urls is the request sequence of one pass, from the seed.
	urls    []string
	clients []*http.Client
}

// spanHeader carries the client span's id to the handler in traced runs,
// so both spans of a request share a parent chain and a request id.
const spanHeader = "X-Bench-Span"

// catalogQs are the array sizes every synthesized scenario was "measured"
// at: the default sweep's twelve log-spaced sizes.
var catalogQs = []float64{1000, 1577, 2487, 3922, 6185, 9754, 15382, 24258, 38256, 60331, 95144, 150000}

// predictQs are the sixteen fixed sizes /predict is asked at.
var predictQs = func() []float64 {
	qs := make([]float64, 16)
	for i := range qs {
		qs[i] = math.Round(1000 * math.Pow(150, float64(i)/15))
	}
	return qs
}()

func newServeHot(e *env) *serveLoad {
	return &serveLoad{e: e, ranks: 4, caches: 8, reps: 8, rowsPerQ: 96, cacheCap: 256, conns: 2,
		batch: 40_000, warmRequests: 20_000}
}

func newServeCold(e *env) *serveLoad {
	return &serveLoad{e: e, ranks: 4, caches: 8, reps: 8, rowsPerQ: 96, cacheCap: 16, conns: 2,
		batch: 4_000, predictOnly: true, warmRequests: 1_000}
}

// scenarioKey is the campaign key a catalog scenario is emitted under.
func scenarioKey(ranks, cacheKB, rep int) string {
	return fmt.Sprintf("p%d/base/c%dkB/r%d", ranks, cacheKB, rep)
}

// synthesizeCatalog writes the catalog's shards through the real sinks,
// in both formats. Rows have the sweep's columns; the wall time follows a
// power law in Q whose coefficients depend on the scenario's coordinates,
// with seeded noise, so every scenario fits a different model.
func (s *serveLoad) synthesizeCatalog(dir string, seed int64) ([]string, error) {
	sink, err := openRowSinks(dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var keys []string
	for p := 1; p <= s.ranks; p++ {
		for c := 0; c < s.caches; c++ {
			cacheKB := 64 << c
			for r := 0; r < s.reps; r++ {
				key := scenarioKey(p, cacheKB, r)
				keys = append(keys, key)
				a := 0.02 * (1 + 0.1*float64(p)) * (1 + 2/float64(c+1))
				b := 1.05 + 0.02*float64(c)
				for _, q := range catalogQs {
					for i := 0; i < s.rowsPerQ; i++ {
						if err := sink.Emit(key, syntheticRow(rng, i, q, a, b, float64(c+1))); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return keys, sink.Close()
}

// syntheticRow is one row with the sweep's columns: the wall time follows
// a*q^b with 5% seeded noise, the misses q/8 over missDiv with 10%.
func syntheticRow(rng *rand.Rand, i int, q, a, b, missDiv float64) results.Row {
	return results.Row{
		results.F("rank", i%3), results.F("q", int(q)), results.F("mode", i%2),
		results.F("wall_us", a*math.Pow(q, b)*(1+0.05*rng.NormFloat64())),
		results.F("l2_dcm", math.Floor(q/8*(1+0.1*rng.Float64())/missDiv)),
	}
}

// requestSet lists every URL the load may send, by kind.
type requestSet struct {
	predict   []string // scenario-major: predictPerScenario consecutive URLs each
	scenarios []string
	trend     []string
}

const predictPerScenario = 48 // 16 sizes x (mean_us, sigma_us, queue response_us)

func (s *serveLoad) requestSet() requestSet {
	var rs requestSet
	for _, name := range s.names {
		for _, q := range predictQs {
			qs := strconv.FormatFloat(q, 'f', -1, 64)
			rs.predict = append(rs.predict,
				"/predict?scenario="+name+"&measure=mean_us&q="+qs,
				"/predict?scenario="+name+"&measure=sigma_us&q="+qs,
				"/predict?scenario="+name+"&measure=response_us&model=queue&lambda=2&q="+qs)
		}
	}
	for p := 1; p <= s.ranks; p++ {
		rs.scenarios = append(rs.scenarios, fmt.Sprintf("/scenarios?ranks=%d", p))
		for r := 0; r < s.reps; r++ {
			rs.trend = append(rs.trend, fmt.Sprintf("/trend?axis=cache_kb&ranks=%d&rep=%d", p, r))
		}
	}
	return rs
}

// sequence draws one pass's request sequence from the seed. The hot mix
// is 80% /predict (scenario uniform; the measure cycles, one request in
// eight asks the queue backend), 10% /scenarios and 10% /trend; the cold
// mix is all /predict, uniform over scenarios.
func (s *serveLoad) sequence(rs requestSet, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	urls := make([]string, n)
	for i := range urls {
		kind := rng.Intn(10)
		switch {
		case s.predictOnly || kind < 8:
			variant := i % 2 // mean_us, sigma_us
			if i%8 == 7 {
				variant = 2 // the queue backend
			}
			urls[i] = rs.predict[rng.Intn(len(s.names))*predictPerScenario+3*rng.Intn(len(predictQs))+variant]
		case kind == 8:
			urls[i] = rs.scenarios[rng.Intn(len(rs.scenarios))]
		default:
			urls[i] = rs.trend[rng.Intn(len(rs.trend))]
		}
	}
	return urls
}

func (s *serveLoad) setup() (err error) {
	if s.dir, err = scratch(s.e.dir, "serve-"); err != nil {
		return err
	}
	keys, err := s.synthesizeCatalog(filepath.Join(s.dir, "rows"), s.e.seed)
	if err != nil {
		return err
	}
	// The expected bodies come from a second Service over a copy of the
	// catalog at another path: responses must not depend on where the
	// campaign directory lives, nor on cache state.
	if err := copyDir(filepath.Join(s.dir, "rows"), filepath.Join(s.dir, "copy")); err != nil {
		return err
	}

	// As cmd/resultsd: observer on, service over the directory.
	observer := obs.New(obs.Options{})
	obs.Enable(observer)
	if s.svc, err = serve.New(s.dir, serve.Options{CacheCap: s.cacheCap, Obs: observer}); err != nil {
		return err
	}
	if got := len(s.svc.Catalog().Scenarios()); got != len(keys) {
		return fmt.Errorf("catalog has %d scenarios, synthesized %d", got, len(keys))
	}
	s.names = s.names[:0]
	for _, sc := range s.svc.Catalog().Scenarios() {
		s.names = append(s.names, sc.Name)
	}

	rs := s.requestSet()
	if err := s.buildExpected(rs); err != nil {
		return err
	}
	s.urls = s.sequence(rs, s.e.seed, s.batch)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.server = &http.Server{Handler: s.handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.server.Serve(ln) }()
	s.clients = make([]*http.Client, s.conns)
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// handler is the service's handler; a traced run wraps it in a serve span
// parented by the client span the request names.
func (s *serveLoad) handler() http.Handler {
	h := s.svc.Handler()
	rec := s.e.rec
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := rec.begin("serve", "handler", parent, 0)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// buildExpected answers every URL of the request set from a second
// Service, through its handler without a socket.
func (s *serveLoad) buildExpected(rs requestSet) error {
	ref, err := serve.New(filepath.Join(s.dir, "copy"), serve.Options{CacheCap: len(s.names), Obs: obs.New(obs.Options{})})
	if err != nil {
		return err
	}
	h := ref.Handler()
	s.expected = make(map[string][]byte, len(rs.predict)+len(rs.scenarios)+len(rs.trend))
	for _, set := range [][]string{rs.predict, rs.scenarios, rs.trend} {
		for _, u := range set {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, u, nil))
			if w.Code != http.StatusOK {
				return fmt.Errorf("reference service: %s: status %d: %s", u, w.Code, strings.TrimSpace(w.Body.String()))
			}
			s.expected[u] = w.Body.Bytes()
		}
	}
	return nil
}

// warm sends requests until the caches that survive a pass are filled and
// the connections are up.
func (s *serveLoad) warm() error {
	n := s.warmRequests
	if n > len(s.urls) {
		n = len(s.urls)
	}
	pr := s.drive(s.urls[:n])
	if pr.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed: %s", pr.failed, pr.attempted, strings.Join(pr.notes, "; "))
	}
	return nil
}

func (s *serveLoad) pass(int) (passResult, error) {
	return s.drive(s.urls), nil
}

// drive sends the sequence over the connections, each taking the next
// unsent request, and checks every reply against the expected body.
func (s *serveLoad) drive(urls []string) passResult {
	var next atomic.Int64
	type connResult struct {
		lat    []float64
		failed int
		notes  []string
	}
	out := make([]connResult, len(s.clients))
	var wg sync.WaitGroup
	parent := s.e.rec.top()
	t0 := now()
	for c, client := range s.clients {
		wg.Add(1)
		go func(res *connResult, client *http.Client) {
			defer wg.Done()
			res.lat = make([]float64, 0, len(urls)/len(s.clients)+1)
			var body bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(urls) {
					return
				}
				u := urls[i]
				span := s.e.rec.begin("http", "request", parent, i+1)
				t := now()
				err := s.get(client, u, span, &body)
				lat := since(t) * 1e3
				s.e.rec.end(span)
				res.lat = append(res.lat, lat)
				if err != nil {
					res.failed++
					if len(res.notes) < 5 {
						res.notes = append(res.notes, err.Error())
					}
				}
			}
		}(&out[c], client)
	}
	wg.Wait()
	pr := passResult{wallS: since(t0), attempted: len(urls)}
	for _, res := range out {
		pr.latMS = append(pr.latMS, res.lat...)
		pr.failed += res.failed
		pr.notes = append(pr.notes, res.notes...)
	}
	return pr
}

// get sends one request and compares the reply with the expected body. A
// transport error, a status other than 200 or a differing body fails it.
func (s *serveLoad) get(client *http.Client, u string, span int, body *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodGet, s.base+u, nil)
	if err != nil {
		return err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := io.Copy(body, resp.Body); err != nil {
		return fmt.Errorf("%s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", u, resp.StatusCode)
	}
	if !bytes.Equal(body.Bytes(), s.expected[u]) {
		return fmt.Errorf("%s: body differs from the reference service's", u)
	}
	return nil
}

// derived reads the cache counters off GET /metrics, as an operator
// would, and the cost of a request outside the handler off the spans.
func (s *serveLoad) derived(m map[string]float64) error {
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	counters := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			counters[name] = v
		}
	}
	hits, misses := counters["resultsd_cache_hits_total"], counters["resultsd_cache_misses_total"]
	if hits+misses == 0 {
		return fmt.Errorf("/metrics reports no cache lookups:\n%s", text)
	}
	m["serve.cache.hit_ratio"] = hits / (hits + misses)
	m["serve.cache.evictions"] = counters["resultsd_cache_evictions_total"]
	// What a request costs outside the handler: client, loopback socket
	// and net/http on both sides.
	if reqs := s.e.rec.named("http", "request"); reqs.count > 0 {
		m["serve.http_overhead.us"] = reqs.self.seconds() * 1e6 / float64(reqs.count)
	}
	return nil
}

func (s *serveLoad) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	var err error
	if s.server != nil {
		err = s.server.Close()
		if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		s.server = nil
	}
	obs.Disable()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
