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
// CSVShardSink writes one CSV shard file per key; Tee fans rows out to
// several sinks at once. The checkpoint store
// that complements this package lives in results/store.
package results

import (
	"errors"
	"fmt"
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
// out; Close flushes and releases resources, after which Emit fails. A
// shard sink's Flush fills its temp files, and only its Close publishes
// the shards, so a reader of a shard directory waits for Close.
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
