package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// sweepShard writes one binary shard shaped like the benchmark's catalog:
// rowsPerQ rows of the sweep's five fields at each of twelve sizes.
func sweepShard(tb testing.TB, rowsPerQ int, edit func(i int, row results.Row) results.Row) *Scenario {
	tb.Helper()
	dir := tb.TempDir()
	sink, err := results.NewBinShardSink(dir)
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	for s := 0; s < 12; s++ {
		q := int(1000 * math.Pow(150, float64(s)/11))
		for r := 0; r < rowsPerQ; r++ {
			row := results.Row{
				results.F("rank", r%3), results.F("q", q), results.F("mode", r%2),
				results.F("wall_us", 0.03*math.Pow(float64(q), 1.1)*(1+0.01*float64(r%7))),
				results.F("l2_dcm", math.Floor(float64(q)/8*(1+0.01*float64(r%5)))),
			}
			if edit != nil {
				row = edit(i, row)
			}
			if err := sink.Emit("p2/base/c128kB/r0", row); err != nil {
				tb.Fatal(err)
			}
			i++
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	cat, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return cat.Scenarios()[0]
}

func TestPartialMissColumnDropsMultiModel(t *testing.T) {
	// A cache-miss column missing from one row cannot feed one regression:
	// the multilinear model goes, the univariate fits and the row count stay.
	full, err := loadEntry(sweepShard(t, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := loadEntry(sweepShard(t, 8, func(i int, row results.Row) results.Row {
		if i == 17 {
			return row[:4]
		}
		return row
	}))
	if err != nil {
		t.Fatal(err)
	}
	if full.rows != 96 || partial.rows != 96 {
		t.Errorf("rows = %d and %d, want 96", full.rows, partial.rows)
	}
	if d := full.backends[0].model.Describe(); !strings.Contains(d, "multi:") {
		t.Errorf("complete miss column fitted no multilinear model: %s", d)
	}
	if d := partial.backends[0].model.Describe(); strings.Contains(d, "multi:") || !strings.Contains(d, "fit over 96 rows") {
		t.Errorf("partial miss column: %s", d)
	}
}

func TestPanickingLoadReleasesItsFlight(t *testing.T) {
	s, _ := newTestService(t, 0)
	sc := s.Catalog().Scenarios()[0]
	s.cache.load = func(*Scenario) (*entry, error) { panic("corrupt fit") }
	for attempt := 1; attempt <= 2; attempt++ {
		done := make(chan error, 1)
		go func() {
			_, err := s.cache.get(sc)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "corrupt fit") {
				t.Fatalf("attempt %d: err = %v, want the panic as an error", attempt, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d blocked on a flight nobody released", attempt)
		}
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("failed load cached: %d resident entries", got)
	}
	// The scenario is servable again as soon as loads stop panicking.
	s.cache.load = loadEntry
	if _, err := s.cache.get(sc); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLoadEntry is the cold path of one /predict miss below the
// handler: read a 1 152-row shard, project the model columns, fit both
// backends (go test -bench LoadEntry -benchmem ./internal/results/serve).
func BenchmarkLoadEntry(b *testing.B) {
	sc := sweepShard(b, 96, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := loadEntry(sc)
		if err != nil || e.rows != 1152 {
			b.Fatal(e, err)
		}
	}
}
