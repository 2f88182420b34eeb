package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named counters and fixed-bucket histograms.
// Lookup takes a read lock; the returned instruments are lock-free
// atomics, so hot paths cache the handle once and update it freely. A
// nil *Registry hands out nil instruments, and every instrument method
// is nil-safe, so disabled observability costs a nil check.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. bounds are
// inclusive upper bounds in ascending order; an implicit +Inf bucket
// catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; cumulative only at exposition
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBucketsUS is the fixed microsecond bucket ladder the store,
// lease and campaign layers observe latencies into.
var LatencyBucketsUS = []float64{10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// Counter returns the named counter, creating it on first use. Nil
// registry returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with bounds on
// first use (later callers get the original regardless of bounds). Nil
// registry returns nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText writes the registry in a Prometheus-flavoured text format:
// one "name value" line per counter, and per histogram the
// cumulative "name_bucket{le=...}" series plus "name_sum" and
// "name_count". Lines are sorted by name so equal registries expose
// equal bytes.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// The read lock covers the whole exposition: the maps may gain
	// entries concurrently (instrument creation takes the write lock),
	// and map iteration concurrent with assignment is a data race even
	// though the instruments themselves are lock-free.
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	counters, hists := r.counters, r.hists
	sort.Strings(names)
	for _, n := range names {
		if c, ok := counters[n]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", n, c.Value()); err != nil {
				return err
			}
			continue
		}
		h := hists[n]
		var cum uint64
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, formatFloat(h.Sum()), n, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the text exposition to path (the one-shot CI mode).
func (r *Registry) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
