// Package results is the streaming result subsystem of the experiment
// campaigns: instead of buffering whole sweep or case-study values in
// memory, jobs emit rows into a Sink as they complete, so a grid can grow
// to thousands of scenarios without proportional memory.
//
// A Row is an ordered list of named, typed fields. A Sink consumes rows
// under a result key (typically the emitting job's campaign key); every
// Sink in this package is safe for concurrent Emit from worker goroutines,
// and output is deterministic because rows are ordered per key: one job
// owns one key and emits its rows in order, so interleaving across keys
// never changes what any key's consumer sees.
//
// Implementations: MemorySink buffers rows per key (tests, small studies);
// AggSink folds rows into on-the-fly mean/min/max/stddev statistics per
// key and never retains them; CSVShardSink writes one CSV shard file per
// key; Tee fans rows out to several sinks at once. The checkpoint store
// that complements this package lives in results/store.
package results

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Field is one named value of a row. Value should be an int, int64,
// float64, string, bool or fmt.Stringer; CSV encoding renders anything
// else with fmt.Sprint.
type Field struct {
	Name  string
	Value any
}

// Row is one emitted result record: an ordered list of named fields. The
// first row emitted under a key fixes the key's column set.
type Row []Field

// F is shorthand for constructing a Field.
func F(name string, value any) Field { return Field{Name: name, Value: value} }

// Float returns the field's value as a float64 when it is numeric.
func (f Field) Float() (float64, bool) {
	switch v := f.Value.(type) {
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// Sink consumes result rows emitted by campaign jobs. Emit may be called
// concurrently from many goroutines; rows emitted under one key must come
// from one goroutine at a time if their relative order matters (which is
// how campaign jobs behave: one job, one key). Flush forces buffered data
// out; Close flushes and releases resources, after which Emit fails.
type Sink interface {
	Emit(key string, row Row) error
	Flush() error
	Close() error
}

// MemorySink buffers rows per key in memory — the buffered compatibility
// sink for tests and small studies.
type MemorySink struct {
	mu   sync.Mutex
	rows map[string][]Row
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{rows: map[string][]Row{}}
}

// Emit implements Sink.
func (s *MemorySink) Emit(key string, row Row) error {
	r := make(Row, len(row))
	copy(r, row)
	s.mu.Lock()
	s.rows[key] = append(s.rows[key], r)
	s.mu.Unlock()
	return nil
}

// Flush implements Sink (no-op).
func (s *MemorySink) Flush() error { return nil }

// Close implements Sink (no-op; the buffered rows stay readable).
func (s *MemorySink) Close() error { return nil }

// Keys returns the emitted keys, sorted.
func (s *MemorySink) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.rows))
	for k := range s.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Rows returns the rows emitted under key, in emission order.
func (s *MemorySink) Rows(key string) []Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows[key]
}

// Stat is a running aggregate of one numeric field under one key.
type Stat struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
}

// aggAcc accumulates one field's moments with Welford's online update:
// the naive sumSq/n - mean^2 form cancels catastrophically when the
// values are large and the spread is small (exactly what microsecond
// telemetry looks like late in a long virtual run).
type aggAcc struct {
	n        int
	mean, m2 float64
	min, max float64
}

func (a *aggAcc) add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

func (a *aggAcc) stat() Stat {
	return Stat{
		N: a.n, Mean: a.mean,
		StdDev: math.Sqrt(a.m2 / float64(a.n)),
		Min:    a.min, Max: a.max,
	}
}

// aggGroup is one key's accumulators, field order preserved.
type aggGroup struct {
	fields map[string]*aggAcc
	order  []string
}

// AggSink aggregates numeric fields on the fly: per key it keeps running
// count/mean/stddev/min/max for every numeric field and discards the rows
// themselves, so memory is bounded by the number of distinct (key, field)
// pairs, not by the number of emitted rows. Non-numeric fields are ignored.
type AggSink struct {
	mu     sync.Mutex
	groups map[string]*aggGroup
}

// NewAggSink returns an empty aggregating sink.
func NewAggSink() *AggSink {
	return &AggSink{groups: map[string]*aggGroup{}}
}

// Emit implements Sink.
func (s *AggSink) Emit(key string, row Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[key]
	if g == nil {
		g = &aggGroup{fields: map[string]*aggAcc{}}
		s.groups[key] = g
	}
	for _, f := range row {
		v, ok := f.Float()
		if !ok {
			continue
		}
		acc := g.fields[f.Name]
		if acc == nil {
			acc = &aggAcc{}
			g.fields[f.Name] = acc
			g.order = append(g.order, f.Name)
		}
		acc.add(v)
	}
	return nil
}

// Flush implements Sink (no-op).
func (s *AggSink) Flush() error { return nil }

// Close implements Sink (no-op; the aggregates stay readable).
func (s *AggSink) Close() error { return nil }

// Keys returns the aggregated keys, sorted.
func (s *AggSink) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.groups))
	for k := range s.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stat returns the running aggregate of one field under one key.
func (s *AggSink) Stat(key, field string) (Stat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[key]
	if g == nil {
		return Stat{}, false
	}
	acc := g.fields[field]
	if acc == nil {
		return Stat{}, false
	}
	return acc.stat(), true
}

// tee fans every call out to all wrapped sinks.
type tee struct {
	sinks []Sink
}

// NewTee returns a Sink that forwards every Emit/Flush/Close to all the
// given sinks, joining their errors.
func NewTee(sinks ...Sink) Sink {
	cp := make([]Sink, len(sinks))
	copy(cp, sinks)
	return &tee{sinks: cp}
}

// Emit implements Sink.
func (t *tee) Emit(key string, row Row) error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Emit(key, row); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush implements Sink.
func (t *tee) Flush() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close implements Sink.
func (t *tee) Close() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// appendValue appends a field value the way the repository's hand-rolled
// CSV writers rendered it: ints as %d, floats as %g, strings and Stringers
// verbatim, anything else as fmt.Sprint does. The strconv calls produce
// fmt's bytes without its interface boxing and intermediate strings.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return append(b, x...)
	case fmt.Stringer:
		return append(b, x.String()...)
	}
	return fmt.Append(b, v)
}
