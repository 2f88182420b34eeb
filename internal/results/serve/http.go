package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	// The parameters the scenario-selecting endpoints accept: their own,
	// then repeatable "tag" and one per catalog axis ("ranks",
	// "cache_kb", ...).
	scenarioParams []string
	trendParams    []string

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
		requests: reg.Counter("resultsd_http_requests_total"),
		errors:   reg.Counter("resultsd_http_errors_total"),
		queryUS:  reg.Histogram("resultsd_query_us", obs.LatencyBucketsUS),
	}
	filter := append([]string{"tag"}, catalog.Axes()...)
	s.scenarioParams = append([]string{"name"}, filter...)
	s.trendParams = append([]string{"axis", "model"}, filter...)
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

// errGetOnly answers every method but GET.
var errGetOnly error = &httpError{status: http.StatusMethodNotAllowed, msg: "GET only"}

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
		err := errGetOnly
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
		args := okSpanArgs
		if status != http.StatusOK {
			args = []obs.Arg{{Name: "status", Value: status}}
		}
		span.End(args...)
	}
}

// okSpanArgs annotates the span of every successful query. The tracer only
// reads an event's args, so one slice serves them all.
var okSpanArgs = []obs.Arg{{Name: "status", Value: http.StatusOK}}

// jsonBuffer is a response body, an indenting encoder writing into it and
// the appender preRendered bodies write through. All keep their storage
// between requests.
type jsonBuffer struct {
	bytes.Buffer
	enc *json.Encoder
	app jsonAppender
}

// jsonContentType is every JSON reply's Content-Type header value. net/http
// only reads it, so one slice serves them all.
var jsonContentType = []string{"application/json"}

var jsonBuffers = sync.Pool{New: func() any {
	b := new(jsonBuffer)
	b.enc = json.NewEncoder(&b.Buffer)
	b.enc.SetIndent("", "  ")
	return b
}}

// preRendered is a body that appends its own JSON (see jsonAppender)
// instead of going through the encoder.
type preRendered interface{ appendJSON(*jsonAppender) }

// writeJSON renders v indented with a trailing newline — the exact bytes
// the API document's examples carry, json.MarshalIndent(v, "", "  ") plus
// "\n", which is what Encoder.Encode prints — and sends them in one write
// with their Content-Length. A preRendered body appends those bytes
// itself, unless it holds a float the encoder refuses: the encoder then
// answers with its error, as for every other body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBuffers.Get().(*jsonBuffer)
	defer jsonBuffers.Put(b)
	b.Reset()
	if p, ok := v.(preRendered); ok {
		b.app = jsonAppender{b: b.AvailableBuffer()}
		p.appendJSON(&b.app)
		if !b.app.refused {
			b.Write(b.app.b)
		}
	}
	if b.Len() == 0 {
		if err := b.enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(b.Len())}
	w.WriteHeader(status)
	w.Write(b.Bytes())
}

// predictParams are the parameters /predict accepts.
var predictParams = []string{"scenario", "measure", "model", "q", "lambda", "dcm"}

// checkParams rejects query parameters outside the allowed set, so typos
// fail loudly instead of silently matching everything.
func checkParams(v url.Values, allowed []string) error {
	var unknown []string
	for k := range v {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return errBadRequest("unknown parameter %q (allowed: %v)", unknown[0], allowed)
	}
	return nil
}

// floatParam parses an optional float query parameter. NaN and the
// infinities are refused: no coordinate or model input takes them.
func floatParam(v url.Values, name string) (float64, bool, error) {
	raw := v.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false, errBadRequest("parameter %q: %q is not a number", name, raw)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false, errBadRequest("parameter %q: %q is not a finite number", name, raw)
	}
	return f, true, nil
}

// parseFilter builds a Filter from query parameters.
func (s *Service) parseFilter(v url.Values) (Filter, error) {
	f := Filter{Tags: v["tag"]}
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
	if err := checkParams(r.URL.Query(), nil); err != nil {
		return nil, err
	}
	return indexResponse{
		Service:   "resultsd",
		Scenarios: len(s.catalog.Scenarios()),
		Axes:      s.catalog.Axes(),
		Backends:  backendNames[:],
		Endpoints: []string{"/healthz", "/metrics", "/predict", "/scenario", "/scenarios", "/trend"},
	}, nil
}

func (s *Service) handleHealthz(r *http.Request) (any, error) {
	if err := checkParams(r.URL.Query(), nil); err != nil {
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

// scenarioList is a /scenarios body: matching scenarios, catalog metadata
// only — no shard is decoded. It renders as json.MarshalIndent renders
// {"count": len, "scenarios": list}, assembled from the elements Open
// rendered.
type scenarioList []*Scenario

func (s *Service) handleScenarios(r *http.Request) (any, error) {
	v := r.URL.Query()
	if err := checkParams(v, s.scenarioParams); err != nil {
		return nil, err
	}
	f, err := s.parseFilter(v)
	if err != nil {
		return nil, err
	}
	f.Name = v.Get("name")
	return scenarioList(s.catalog.Match(f)), nil
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
	if err := checkParams(v, s.scenarioParams); err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return nil, errBadRequest("at least one selector required (name, tag, or an axis: %v); use /scenarios to browse", s.catalog.Axes())
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
		for i := range e.backends {
			b := &e.backends[i]
			describe, coeffs := b.text()
			d.Backends = append(d.Backends, backendDetail{
				Backend:      backendNames[i],
				Measures:     b.model.Measures(),
				Describe:     describe,
				Coefficients: coeffs,
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
	if err := checkParams(v, predictParams); err != nil {
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
	i, ok := backendIndex(backend)
	if !ok {
		return nil, errBadRequest("unknown model backend %q (have %v)", backend, backendNames)
	}
	b := &e.backends[i]
	at := Point{Q: q, Lambda: lambda, DCM: dcm, HasDCM: hasDCM}
	value, err := b.model.Predict(measure, at)
	if err != nil {
		return nil, errUnprocessable(err)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return nil, errUnprocessable(fmt.Errorf("serve: %s at Q=%g is %g, not a finite number", measure, q, value))
	}
	describe, _ := b.text()
	resp := predictResponse{
		Scenario: sc.Name,
		Backend:  backend,
		Measure:  measure,
		At:       predictAt{Q: q, Lambda: lambda},
		Value:    value,
		Model:    describe,
		Rows:     e.rows,
	}
	if hasDCM {
		d := dcm
		resp.At.DCM = &d
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
	if err := checkParams(v, s.trendParams); err != nil {
		return nil, err
	}
	axis := v.Get("axis")
	if axis == "" {
		return nil, errBadRequest("parameter \"axis\" required (one of %v)", s.catalog.Axes())
	}
	if !slices.Contains(s.catalog.Axes(), axis) {
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
	// Match returns a fresh slice, so it is filtered in place.
	scens := slices.DeleteFunc(s.catalog.Match(f), func(sc *Scenario) bool {
		_, ok := sc.Coord(axis)
		return !ok
	})
	if len(scens) == 0 {
		return nil, errNotFound("no scenario matches the query on axis %q", axis)
	}
	bi, known := backendIndex(backend)
	var series []trendSeries
	for _, sc := range scens {
		x, _ := sc.Coord(axis)
		e, err := s.cache.get(sc)
		if err != nil {
			return nil, errUnprocessable(err)
		}
		if !known {
			return nil, errBadRequest("unknown model backend %q (have %v)", backend, backendNames)
		}
		_, coeffs := e.backends[bi].text()
		for _, c := range coeffs {
			j := slices.IndexFunc(series, func(ts trendSeries) bool { return ts.Model == c.Model && ts.Coefficient == c.Name })
			if j < 0 {
				j = len(series)
				series = append(series, trendSeries{Model: c.Model, Coefficient: c.Name, Points: make([]trendPoint, 0, len(scens))})
			}
			series[j].Points = append(series[j].Points, trendPoint{X: x, Scenario: sc.Name, Value: c.Value})
		}
	}
	slices.SortFunc(series, func(a, b trendSeries) int {
		return cmp.Or(strings.Compare(a.Model, b.Model), strings.Compare(a.Coefficient, b.Coefficient))
	})
	for _, ts := range series {
		slices.SortFunc(ts.Points, func(a, b trendPoint) int {
			return cmp.Or(cmp.Compare(a.X, b.X), strings.Compare(a.Scenario, b.Scenario))
		})
	}
	return trendResponse{Axis: axis, Backend: backend, Scenarios: len(scens), Series: series}, nil
}
