package results

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

type dirStringer int

func (dirStringer) String() string { return "X" }

// The CSV bytes the encoder tests pin; FuzzCSVColumns seeds from them.
const (
	csvEncoderGolden = "rank,q,mode,wall_us\n0,1000,X,123.456\n2,150000,Y,1.5e-07\n"
	csvHeaderGolden  = "a,b\n1,2\n"
	csvShardGolden   = "q,wall_us\n0,0.25\n1000,0.25\n2000,0.25\n"
)

func TestCSVEncoderByteFormat(t *testing.T) {
	// The encoder must reproduce the original hand-rolled writers' bytes:
	// ints via %d, floats via %g, strings and Stringers verbatim.
	var sb strings.Builder
	enc := NewCSVEncoder(&sb)
	rows := []Row{
		{F("rank", 0), F("q", 1000), F("mode", dirStringer(0)), F("wall_us", 123.456)},
		{F("rank", 2), F("q", 150000), F("mode", "Y"), F("wall_us", 1.5e-07)},
	}
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if sb.String() != csvEncoderGolden {
		t.Errorf("encoded = %q, want %q", sb.String(), csvEncoderGolden)
	}
}

func TestCSVEncoderExplicitHeader(t *testing.T) {
	var sb strings.Builder
	enc := NewCSVEncoder(&sb)
	if err := enc.Header("a", "b"); err != nil {
		t.Fatal(err)
	}
	// A second Header and the first row's implicit header are no-ops.
	if err := enc.Header("c", "d"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Row{F("a", 1), F("b", 2)}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != csvHeaderGolden {
		t.Errorf("encoded = %q, want %q", sb.String(), csvHeaderGolden)
	}
}

// fmtValue is the fmt rendering appendValue replaced, kept as the
// reference its bytes are held to.
func fmtValue(v any) string {
	switch x := v.(type) {
	case int:
		return fmt.Sprintf("%d", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case string:
		return x
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprint(v)
}

// FuzzCSVValue holds appendValue to the fmt rendering for any int, any
// float64 bit pattern, any string, a Stringer and the values that take
// the fmt.Sprint fallback, appended after bytes already in the buffer.
func FuzzCSVValue(f *testing.F) {
	for i, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 123.456, 1.5e-07, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(int64(i)*-977, math.Float64bits(x), "")
	}
	f.Add(int64(math.MinInt64), uint64(0x7ff8000000000001), "Y")
	f.Add(int64(math.MaxInt64), uint64(1), "a,b\n\x00\xff")
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string) {
		x := math.Float64frombits(bits)
		for _, v := range []any{int(i), i, x, s, dirStringer(i), time.Duration(i), i%2 == 0, int32(i), float32(x), []byte(s), nil} {
			got := string(appendValue([]byte("p,"), v))
			if want := "p," + fmtValue(v); got != want {
				t.Fatalf("%T %v: appended %q, fmt renders %q", v, v, got, want)
			}
		}
	})
}

func TestRowEncodersAllocateNothingPerRow(t *testing.T) {
	// After the first row each encoder's buffer is grown: ints, floats and
	// strings are appended into it and the row is written in one call, so
	// a row of them costs no allocation at all.
	row := Row{F("rank", 3), F("q", 52345), F("count", int64(1)<<40), F("mode", "Y"), F("wall_us", 12345.678), F("l2_dcm", 9876.0)}
	for _, enc := range []rowEncoder{NewCSVEncoder(io.Discard), NewBinEncoder(io.Discard)} {
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%T.Encode: %v allocations per row, want 0", enc, n)
		}
	}
}

func TestMemorySinkConcurrentPerKeyOrder(t *testing.T) {
	s := NewMemorySink()
	const keys, rows = 8, 200
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("job/%d", k)
			for i := 0; i < rows; i++ {
				if err := s.Emit(key, Row{F("i", i), F("k", k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if got := len(s.Keys()); got != keys {
		t.Fatalf("keys = %d, want %d", got, keys)
	}
	for _, key := range s.Keys() {
		got := s.Rows(key)
		if len(got) != rows {
			t.Fatalf("%s: rows = %d, want %d", key, len(got), rows)
		}
		for i, r := range got {
			if r[0].Value.(int) != i {
				t.Fatalf("%s: row %d out of order: %v", key, i, r)
			}
		}
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	tee := NewTee(a, b)
	if err := tee.Emit("k", Row{F("v", 2.0)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*MemorySink{a, b} {
		if rows := s.Rows("k"); len(rows) != 1 || rows[0][0].Value != 2.0 {
			t.Errorf("sink %d holds %v, want the one row", i, rows)
		}
	}
}

func TestCSVShardSinkConcurrentMatchesSerial(t *testing.T) {
	emit := func(s *CSVShardSink, parallel bool) {
		t.Helper()
		const keys, rows = 6, 50
		var wg sync.WaitGroup
		for k := 0; k < keys; k++ {
			job := func(k int) {
				key := fmt.Sprintf("p%d/eth/c512kB/r0", k)
				for i := 0; i < rows; i++ {
					if err := s.Emit(key, Row{F("i", i), F("v", float64(k)+0.5)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if parallel {
				wg.Add(1)
				go func(k int) { defer wg.Done(); job(k) }(k)
			} else {
				job(k)
			}
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	serialDir, parDir := t.TempDir(), t.TempDir()
	serial, err := NewCSVShardSink(serialDir)
	if err != nil {
		t.Fatal(err)
	}
	emit(serial, false)
	par, err := NewCSVShardSink(parDir)
	if err != nil {
		t.Fatal(err)
	}
	emit(par, true)

	for _, key := range serial.Keys() {
		want, err := os.ReadFile(serial.ShardPath(key))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(par.ShardPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: concurrent shard differs from serial", key)
		}
		if !strings.HasPrefix(string(want), "i,v\n0,") {
			t.Errorf("%s: unexpected shard content %q", key, want[:20])
		}
	}
}

func TestShardFileNamesDistinctAfterSanitization(t *testing.T) {
	// "p3/eth" and "p3_eth" sanitize to the same base name; the FNV suffix
	// must keep their shards apart.
	a, b := shardFile("p3/eth", ".csv"), shardFile("p3_eth", ".csv")
	if a == b {
		t.Errorf("colliding shard files %q", a)
	}
	if strings.ContainsAny(a, "/\\") {
		t.Errorf("shard file %q not sanitized", a)
	}
	if got := shardFile("plain-key_1.0", ".csv"); got != "plain-key_1.0.csv" {
		t.Errorf("clean key renamed to %q", got)
	}
}

func TestCSVShardSinkRejectsEmitAfterClose(t *testing.T) {
	s, err := NewCSVShardSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit("k", Row{F("v", 1)}); err == nil {
		t.Error("emit after close succeeded")
	}
}

func TestShardEvictionReopensInAppendMode(t *testing.T) {
	// With a tiny open-file bound, interleaved keys force shards to be
	// evicted and reopened; every shard must still hold all its rows in
	// order under a single header.
	s, err := NewCSVShardSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.maxOpen = 2
	const keys, rounds = 5, 4
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			if err := s.Emit(fmt.Sprintf("key%d", k), Row{F("round", r), F("k", k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.open) > 2 {
		t.Fatalf("%d shards open, bound is 2", len(s.open))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		data, err := os.ReadFile(s.ShardPath(fmt.Sprintf("key%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		want := "round,k\n"
		for r := 0; r < rounds; r++ {
			want += fmt.Sprintf("%d,%d\n", r, k)
		}
		if string(data) != want {
			t.Errorf("key%d shard = %q, want %q", k, data, want)
		}
	}
}

// TestUnclosedShardSinkPublishesNothing: a sink that emits and flushes but
// is never closed, as when a campaign is killed, leaves no file at any
// ShardPath, evicted shards included, so a reader of the directory cannot
// take a torn shard for a whole one. Close then publishes every shard and
// leaves nothing else in the directory.
func TestUnclosedShardSinkPublishesNothing(t *testing.T) {
	csvSink, err := NewCSVShardSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	binSink, err := NewBinShardSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*shardSink{csvSink.shardSink, binSink.shardSink} {
		s.maxOpen = 2
		const keys, rounds = 5, 3
		for r := 0; r < rounds; r++ {
			for k := 0; k < keys; k++ {
				if err := s.Emit(fmt.Sprintf("key%d", k), Row{F("round", r), F("k", k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, key := range s.Keys() {
			path := s.ShardPath(key)
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%s exists before Close", path)
			}
			want = append(want, filepath.Base(path))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s after Close holds %v, want %v", s.Dir(), got, want)
		}
	}
}

func TestThousandScenarioGridStreams(t *testing.T) {
	// The acceptance shape for the streaming subsystem: a 1000-scenario
	// grid's keys stream through a shard sink, one file per scenario, with
	// nothing buffered in the sink itself.
	s, err := NewCSVShardSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const scenarios = 1000
	for i := 0; i < scenarios; i++ {
		key := fmt.Sprintf("p3/eth/c%dkB/r%d", 128+(i%8)*64, i)
		for r := 0; r < 3; r++ {
			if err := s.Emit(key, Row{F("q", 1000*r), F("wall_us", float64(i)+0.25)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(s.Keys()); got != scenarios {
		t.Fatalf("%d shards, want %d", got, scenarios)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.ShardPath("p3/eth/c128kB/r0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != csvShardGolden {
		t.Errorf("shard content = %q, want %q", data, csvShardGolden)
	}
}

// BenchmarkCSVShardSink measures sink throughput: rows/sec streamed into a
// handful of shard files from one goroutine (the per-job emission
// pattern).
func BenchmarkCSVShardSink(b *testing.B) {
	dir := b.TempDir()
	s, err := NewCSVShardSink(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("p3/eth/c%dkB/r0", 128<<i)
	}
	row := Row{F("rank", 1), F("q", 52345), F("mode", "Y"), F("wall_us", 12345.678), F("l2_dcm", 9876.0)}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := s.Emit(keys[i%len(keys)], row); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	_ = filepath.Join(dir, "flushed")
}
