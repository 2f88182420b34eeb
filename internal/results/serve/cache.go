package serve

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/results"
)

// DefaultCacheCap is the number of decoded-and-fitted scenarios the
// read-through cache keeps resident when Options does not override it.
// An entry is a few fitted coefficients plus group statistics — small —
// but the bound keeps a scan over a huge campaign from pinning every
// shard's models at once.
const DefaultCacheCap = 256

// entry is one cached scenario: the decoded row count and every fitted
// backend, in backendNames order. Entries are immutable after load but for
// each backend's text, rendered once; concurrent queries share them
// freely.
type entry struct {
	sc       *Scenario
	rows     int
	backends [len(backendNames)]backend
}

// backend is one fitted model and its Describe and Coefficients, which
// are a pure function of the immutable model: rendered on the first query
// that needs them, not at load, so a model that is loaded and evicted
// without one never pays for them.
type backend struct {
	model    PerformanceModel
	once     sync.Once
	describe string
	coeffs   []Coefficient
}

// text returns the model's Describe and Coefficients.
func (b *backend) text() (string, []Coefficient) {
	b.once.Do(func() { b.describe, b.coeffs = b.model.Describe(), b.model.Coefficients() })
	return b.describe, b.coeffs
}

// modelCache is the read-through cache in front of shard decoding and
// model fitting. Lookups are LRU; concurrent misses on the same scenario
// are deduplicated singleflight-style so a shard is decoded once no
// matter how many queries race for it. Hits, misses, evictions and load
// latency go to the obs registry; instruments are captured at
// construction, never looked up per request.
type modelCache struct {
	cap   int
	track *obs.Track
	// load decodes and fits one scenario: loadEntry, except in the test
	// that makes a load panic.
	load func(*Scenario) (*entry, error)

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	byName   map[string]*list.Element
	inflight map[string]*flight

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	loadUS    *obs.Histogram
}

// flight is one in-progress load shared by every query that missed on
// the same scenario while it was loading.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

func newModelCache(capacity int, o *obs.Observer) *modelCache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	reg := o.Metrics()
	return &modelCache{
		cap:       capacity,
		load:      loadEntry,
		track:     o.Tracer().Track("resultsd", "cache"),
		lru:       list.New(),
		byName:    map[string]*list.Element{},
		inflight:  map[string]*flight{},
		hits:      reg.Counter("resultsd_cache_hits_total"),
		misses:    reg.Counter("resultsd_cache_misses_total"),
		evictions: reg.Counter("resultsd_cache_evictions_total"),
		loadUS:    reg.Histogram("resultsd_scenario_load_us", obs.LatencyBucketsUS),
	}
}

// get returns the scenario's cached entry, loading (decode + fit) on
// first use. Every concurrent miss for one scenario waits on a single
// load; each waiter still counts as a miss (the counters measure lookup
// outcomes, not disk reads — the load histogram counts actual decodes).
//
//repolint:allow wallclock -- cache load latency is wall-clock observability; nothing downstream consumes it
func (c *modelCache) get(sc *Scenario) (*entry, error) {
	c.mu.Lock()
	if el, ok := c.byName[sc.Name]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		return el.Value.(*entry), nil
	}
	c.misses.Inc()
	if fl, ok := c.inflight[sc.Name]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.e, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[sc.Name] = fl
	c.mu.Unlock()

	span := c.track.Begin("cache", "load")
	start := time.Now()
	fl.e, fl.err = c.safeLoad(sc)
	c.loadUS.Observe(float64(time.Since(start).Microseconds()))
	span.End(obs.Arg{Name: "scenario", Value: sc.Name}, obs.Arg{Name: "ok", Value: fl.err == nil})

	c.mu.Lock()
	delete(c.inflight, sc.Name)
	if fl.err == nil {
		c.byName[sc.Name] = c.lru.PushFront(fl.e)
		for c.lru.Len() > c.cap {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.byName, old.Value.(*entry).sc.Name)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.e, fl.err
}

// safeLoad runs the loader and turns a panic into the load's error (not
// cached, like any failed load). net/http would recover the handler, but
// the flight would stay in the map with its channel open, and every later
// query for the scenario would block on it forever.
func (c *modelCache) safeLoad(sc *Scenario) (e *entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("serve: loading scenario %s panicked: %v", sc.Name, r)
		}
	}()
	return c.load(sc)
}

// loadScratch is the storage one cold load works in: the column reader
// and the (Q, DCM) feature vectors the multilinear fit reads. Loads take
// one from loadScratches and put it back, so a load allocates nothing
// that grows with the shard once the pool holds a scratch as large.
type loadScratch struct {
	reader results.ColumnReader
	flat   []float64   // backs every feature vector
	feats  [][]float64 // one (Q, DCM) vector per modeled row
}

// loadScratches pools the scratches of concurrent cold loads.
var loadScratches = sync.Pool{New: func() any { return new(loadScratch) }}

// loadEntry projects the three model columns out of a scenario's shard
// (either format) and fits every backend, in a pooled scratch. Nothing
// of the scratch escapes into the entry: the entry keeps the row count,
// and the models copy what they keep (GroupStats' output and the
// MultiLin coefficients), so the scratch is free for the next load as
// soon as this one returns.
func loadEntry(sc *Scenario) (*entry, error) {
	s := loadScratches.Get().(*loadScratch)
	defer loadScratches.Put(s)
	return s.load(sc)
}

// load is one cold load in s's storage; its Columns last until the
// scratch's next load.
func (s *loadScratch) load(sc *Scenario) (*entry, error) {
	cols, err := s.reader.Read(sc.File, fieldQ, fieldWall, fieldDCM)
	if err != nil {
		return nil, err
	}
	models, err := buildBackends(sc, cols, s)
	if err != nil {
		return nil, err
	}
	e := &entry{sc: sc, rows: cols.Rows}
	for i, m := range models {
		e.backends[i].model = m
	}
	return e, nil
}

// features lays out one (Q, DCM) feature vector per row over the
// scratch's one backing array.
func (s *loadScratch) features(q, dcm []float64) [][]float64 {
	n := len(q)
	s.flat = slices.Grow(s.flat[:0], 2*n)[:2*n]
	s.feats = slices.Grow(s.feats[:0], n)[:n]
	for i := range q {
		s.feats[i] = s.flat[2*i : 2*i+2 : 2*i+2]
		s.feats[i][0], s.feats[i][1] = q[i], dcm[i]
	}
	return s.feats
}

// len returns the resident entry count (test hook).
func (c *modelCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
