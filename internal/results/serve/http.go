package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Options configures a Service.
type Options struct {
	// CacheCap bounds the number of decoded-and-fitted scenarios kept
	// resident. Zero means DefaultCacheCap.
	CacheCap int
	// Obs supplies the observer whose registry and tracer the service
	// records into. Nil means the process-global obs.Active() (which may
	// itself be nil; everything is nil-safe and /metrics is then empty).
	Obs *obs.Observer
}

// Service answers model queries over one campaign rows directory. Build
// one with New; it is safe for concurrent use.
type Service struct {
	catalog *Catalog
	cache   *modelCache
	reg     *obs.Registry
	track   *obs.Track
	axisSet map[string]bool

	requests *obs.Counter
	errors   *obs.Counter
	queryUS  *obs.Histogram
}

// New opens the rows directory (or a campaign directory containing one)
// and builds the query service over it.
func New(dir string, opts Options) (*Service, error) {
	catalog, err := Open(dir)
	if err != nil {
		return nil, err
	}
	o := opts.Obs
	if o == nil {
		o = obs.Active()
	}
	reg := o.Metrics()
	s := &Service{
		catalog:  catalog,
		cache:    newModelCache(opts.CacheCap, o),
		reg:      reg,
		track:    o.Tracer().Track("resultsd", "http"),
		axisSet:  map[string]bool{},
		requests: reg.Counter("resultsd_http_requests_total"),
		errors:   reg.Counter("resultsd_http_errors_total"),
		queryUS:  reg.Histogram("resultsd_query_us", obs.LatencyBucketsUS),
	}
	for _, a := range catalog.Axes() {
		s.axisSet[a] = true
	}
	return s, nil
}

// Catalog returns the scenario catalog the service was opened over.
func (s *Service) Catalog() *Catalog { return s.catalog }

// Handler returns the service's HTTP handler. All endpoints are GET;
// responses are JSON except /metrics (text exposition). Identical
// catalogs produce byte-identical responses for identical queries.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.wrap("index", s.handleIndex))
	mux.HandleFunc("/healthz", s.wrap("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/scenarios", s.wrap("scenarios", s.handleScenarios))
	mux.HandleFunc("/scenario", s.wrap("scenario", s.handleScenario))
	mux.HandleFunc("/predict", s.wrap("predict", s.handlePredict))
	mux.HandleFunc("/trend", s.wrap("trend", s.handleTrend))
	return mux
}

// httpError carries a status code up from a handler; its message is the
// response body's "error" field.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// errUnprocessable covers semantically valid queries the model cannot
// answer: unsupported measures, saturated queues, unservable shards.
func errUnprocessable(err error) error {
	return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
}

// wrap adapts a handler to the common envelope: GET-only, request
// counting, a span and a latency sample per query, JSON rendering with
// sorted struct fields, and the {"error": ...} error shape.
//
//repolint:allow wallclock -- query latency histograms are wall-clock observability; responses never include it
func (s *Service) wrap(name string, h func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		span := s.track.Begin("http", name)
		start := time.Now()
		var status int
		var body any
		err := error(&httpError{status: http.StatusMethodNotAllowed, msg: "GET only"})
		if r.Method == http.MethodGet {
			body, err = h(r)
		}
		if err != nil {
			s.errors.Inc()
			status = http.StatusInternalServerError
			if he, ok := err.(*httpError); ok {
				status = he.status
			}
			writeJSON(w, status, struct {
				Error string `json:"error"`
			}{err.Error()})
		} else {
			status = http.StatusOK
			writeJSON(w, status, body)
		}
		s.queryUS.Observe(float64(time.Since(start).Microseconds()))
		span.End(obs.Arg{Name: "status", Value: status})
	}
}

// writeJSON renders v indented with a trailing newline — the exact bytes
// the API document's examples carry.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// checkParams rejects query parameters outside the allowed set, so typos
// fail loudly instead of silently matching everything.
func checkParams(v url.Values, allowed ...string) error {
	ok := map[string]bool{}
	for _, a := range allowed {
		ok[a] = true
	}
	var unknown []string
	for k := range v {
		if !ok[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return errBadRequest("unknown parameter %q (allowed: %v)", unknown[0], allowed)
	}
	return nil
}

// floatParam parses an optional float query parameter.
func floatParam(v url.Values, name string) (float64, bool, error) {
	raw := v.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false, errBadRequest("parameter %q: %q is not a number", name, raw)
	}
	return f, true, nil
}

// filterParams is the parameter set shared by the scenario-selecting
// endpoints: "sched", repeatable "tag", and one parameter per catalog
// axis ("ranks", "cache_kb", ...).
func (s *Service) filterParams() []string {
	params := append([]string{"sched", "tag"}, s.catalog.Axes()...)
	return params
}

// parseFilter builds a Filter from query parameters.
func (s *Service) parseFilter(v url.Values) (Filter, error) {
	f := Filter{Sched: v.Get("sched"), Tags: v["tag"]}
	for _, axis := range s.catalog.Axes() {
		val, ok, err := floatParam(v, axis)
		if err != nil {
			return Filter{}, err
		}
		if ok {
			f.Coords = append(f.Coords, Coord{Axis: axis, Value: val})
		}
	}
	return f, nil
}

// indexResponse is the "/" body: what is being served and how to ask.
type indexResponse struct {
	Service   string   `json:"service"`
	Scenarios int      `json:"scenarios"`
	Axes      []string `json:"axes"`
	Backends  []string `json:"backends"`
	Endpoints []string `json:"endpoints"`
}

func (s *Service) handleIndex(r *http.Request) (any, error) {
	if r.URL.Path != "/" {
		return nil, errNotFound("no such endpoint %q", r.URL.Path)
	}
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	return indexResponse{
		Service:   "resultsd",
		Scenarios: len(s.catalog.Scenarios()),
		Axes:      s.catalog.Axes(),
		Backends:  backendNames,
		Endpoints: []string{"/healthz", "/metrics", "/predict", "/scenario", "/scenarios", "/trend"},
	}, nil
}

func (s *Service) handleHealthz(r *http.Request) (any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	return struct {
		OK        bool `json:"ok"`
		Scenarios int  `json:"scenarios"`
	}{true, len(s.catalog.Scenarios())}, nil
}

// handleMetrics is the text exposition of the obs registry: cache and
// query counters live here, never in query responses (responses must be
// byte-identical regardless of cache state).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteText(w)
}

// scenariosResponse lists matching scenarios, catalog metadata only — no
// shard is decoded.
type scenariosResponse struct {
	Count     int         `json:"count"`
	Scenarios []*Scenario `json:"scenarios"`
}

func (s *Service) handleScenarios(r *http.Request) (any, error) {
	v := r.URL.Query()
	if err := checkParams(v, append([]string{"name"}, s.filterParams()...)...); err != nil {
		return nil, err
	}
	f, err := s.parseFilter(v)
	if err != nil {
		return nil, err
	}
	f.Name = v.Get("name")
	matched := s.catalog.Match(f)
	return scenariosResponse{Count: len(matched), Scenarios: matched}, nil
}

// backendDetail is one fitted backend in a scenario response.
type backendDetail struct {
	Backend      string        `json:"backend"`
	Measures     []Measure     `json:"measures"`
	Describe     string        `json:"describe"`
	Coefficients []Coefficient `json:"coefficients"`
}

// scenarioDetail is one fully loaded scenario: metadata plus every
// backend's fitted coefficients.
type scenarioDetail struct {
	*Scenario
	Rows     int             `json:"rows"`
	Backends []backendDetail `json:"backends"`
}

type scenarioResponse struct {
	Count     int              `json:"count"`
	Scenarios []scenarioDetail `json:"scenarios"`
}

func (s *Service) handleScenario(r *http.Request) (any, error) {
	v := r.URL.Query()
	if err := checkParams(v, append([]string{"name"}, s.filterParams()...)...); err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return nil, errBadRequest("at least one selector required (name, sched, tag, or an axis: %v); use /scenarios to browse", s.catalog.Axes())
	}
	f, err := s.parseFilter(v)
	if err != nil {
		return nil, err
	}
	f.Name = v.Get("name")
	matched := s.catalog.Match(f)
	if len(matched) == 0 {
		return nil, errNotFound("no scenario matches the query")
	}
	resp := scenarioResponse{Count: len(matched)}
	for _, sc := range matched {
		e, err := s.cache.get(sc)
		if err != nil {
			return nil, errUnprocessable(err)
		}
		d := scenarioDetail{Scenario: sc, Rows: e.rows}
		for _, b := range backendNames {
			m := e.backends[b]
			d.Backends = append(d.Backends, backendDetail{
				Backend:      b,
				Measures:     m.Measures(),
				Describe:     m.Describe(),
				Coefficients: m.Coefficients(),
			})
		}
		resp.Scenarios = append(resp.Scenarios, d)
	}
	return resp, nil
}

// predictAt echoes the evaluated coordinate.
type predictAt struct {
	Q      float64  `json:"q"`
	Lambda float64  `json:"lambda,omitempty"`
	DCM    *float64 `json:"dcm,omitempty"`
}

type predictResponse struct {
	Scenario string    `json:"scenario"`
	Backend  string    `json:"backend"`
	Measure  Measure   `json:"measure"`
	At       predictAt `json:"at"`
	Value    float64   `json:"value"`
	Model    string    `json:"model"`
	Rows     int       `json:"rows"`
}

func (s *Service) handlePredict(r *http.Request) (any, error) {
	v := r.URL.Query()
	if err := checkParams(v, "scenario", "measure", "model", "q", "lambda", "dcm"); err != nil {
		return nil, err
	}
	name := v.Get("scenario")
	if name == "" {
		return nil, errBadRequest("parameter \"scenario\" required (a name from /scenarios)")
	}
	sc, ok := s.catalog.Lookup(name)
	if !ok {
		return nil, errNotFound("unknown scenario %q", name)
	}
	measure := Measure(v.Get("measure"))
	if measure == "" {
		return nil, errBadRequest("parameter \"measure\" required")
	}
	backend := v.Get("model")
	if backend == "" {
		backend = backendNames[0]
	}
	q, qok, err := floatParam(v, "q")
	if err != nil {
		return nil, err
	}
	if !qok {
		return nil, errBadRequest("parameter \"q\" required (the array size to predict at)")
	}
	lambda, _, err := floatParam(v, "lambda")
	if err != nil {
		return nil, err
	}
	dcm, hasDCM, err := floatParam(v, "dcm")
	if err != nil {
		return nil, err
	}
	e, err := s.cache.get(sc)
	if err != nil {
		return nil, errUnprocessable(err)
	}
	m, ok := e.backends[backend]
	if !ok {
		return nil, errBadRequest("unknown model backend %q (have %v)", backend, backendNames)
	}
	at := Point{Q: q, Lambda: lambda, DCM: dcm, HasDCM: hasDCM}
	value, err := m.Predict(measure, at)
	if err != nil {
		return nil, errUnprocessable(err)
	}
	resp := predictResponse{
		Scenario: sc.Name,
		Backend:  backend,
		Measure:  measure,
		At:       predictAt{Q: q, Lambda: lambda},
		Value:    value,
		Model:    m.Describe(),
		Rows:     e.rows,
	}
	if hasDCM {
		resp.At.DCM = &dcm
	}
	return resp, nil
}

// trendPoint is one scenario's coefficient value at its axis coordinate.
type trendPoint struct {
	X        float64 `json:"x"`
	Scenario string  `json:"scenario"`
	Value    float64 `json:"value"`
}

// trendSeries is one coefficient's curve along the axis — the paper's
// "coefficients parameterized by a machine parameter" view.
type trendSeries struct {
	Model       string       `json:"model"`
	Coefficient string       `json:"coefficient"`
	Points      []trendPoint `json:"points"`
}

type trendResponse struct {
	Axis      string        `json:"axis"`
	Backend   string        `json:"backend"`
	Scenarios int           `json:"scenarios"`
	Series    []trendSeries `json:"series"`
}

func (s *Service) handleTrend(r *http.Request) (any, error) {
	v := r.URL.Query()
	if err := checkParams(v, append([]string{"axis", "model"}, s.filterParams()...)...); err != nil {
		return nil, err
	}
	axis := v.Get("axis")
	if axis == "" {
		return nil, errBadRequest("parameter \"axis\" required (one of %v)", s.catalog.Axes())
	}
	if !s.axisSet[axis] {
		return nil, errNotFound("axis %q not present in this campaign (have %v)", axis, s.catalog.Axes())
	}
	backend := v.Get("model")
	if backend == "" {
		backend = backendNames[0]
	}
	f, err := s.parseFilter(v)
	if err != nil {
		return nil, err
	}
	var scens []*Scenario
	for _, sc := range s.catalog.Match(f) {
		if _, ok := sc.Coord(axis); ok {
			scens = append(scens, sc)
		}
	}
	if len(scens) == 0 {
		return nil, errNotFound("no scenario matches the query on axis %q", axis)
	}
	type seriesKey struct{ model, name string }
	series := map[seriesKey]*trendSeries{}
	var order []seriesKey
	for _, sc := range scens {
		x, _ := sc.Coord(axis)
		e, err := s.cache.get(sc)
		if err != nil {
			return nil, errUnprocessable(err)
		}
		m, ok := e.backends[backend]
		if !ok {
			return nil, errBadRequest("unknown model backend %q (have %v)", backend, backendNames)
		}
		for _, c := range m.Coefficients() {
			k := seriesKey{c.Model, c.Name}
			ts := series[k]
			if ts == nil {
				ts = &trendSeries{Model: c.Model, Coefficient: c.Name}
				series[k] = ts
				order = append(order, k)
			}
			ts.Points = append(ts.Points, trendPoint{X: x, Scenario: sc.Name, Value: c.Value})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].model != order[j].model {
			return order[i].model < order[j].model
		}
		return order[i].name < order[j].name
	})
	resp := trendResponse{Axis: axis, Backend: backend, Scenarios: len(scens)}
	for _, k := range order {
		ts := series[k]
		sort.Slice(ts.Points, func(i, j int) bool {
			if ts.Points[i].X != ts.Points[j].X {
				return ts.Points[i].X < ts.Points[j].X
			}
			return ts.Points[i].Scenario < ts.Points[j].Scenario
		})
		resp.Series = append(resp.Series, *ts)
	}
	return resp, nil
}
