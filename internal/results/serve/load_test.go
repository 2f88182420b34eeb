package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// sweepShard writes sibling CSV and binary shards shaped like the
// benchmark's catalog: rowsPerQ rows of the sweep's five fields at each of
// twelve sizes. It returns the scenario as the catalog serves it, from the
// binary shard; csvSibling gives the same scenario over the CSV one.
func sweepShard(tb testing.TB, rowsPerQ int, edit func(i int, row results.Row) results.Row) *Scenario {
	tb.Helper()
	dir := tb.TempDir()
	csvSink, err := results.NewCSVShardSink(dir)
	if err != nil {
		tb.Fatal(err)
	}
	binSink, err := results.NewBinShardSink(dir)
	if err != nil {
		tb.Fatal(err)
	}
	sink := results.NewTee(csvSink, binSink)
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

// csvSibling is sc served from the CSV shard beside its binary one.
func csvSibling(sc *Scenario) *Scenario {
	c := *sc
	c.File, c.Format = strings.TrimSuffix(sc.File, ".bin")+".csv", "csv"
	return &c
}

// benchQs are the sixteen sizes the benchmark asks /predict at.
var benchQs = func() []float64 {
	qs := make([]float64, 16)
	for i := range qs {
		qs[i] = math.Round(1000 * math.Pow(150, float64(i)/15))
	}
	return qs
}()

// modelAnswers renders everything a query can read off an entry: the row
// count, and for each backend its Describe, its Coefficients and every
// measure it supports at the sixteen bench sizes, with and without a
// cache-miss count.
func modelAnswers(e *entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows %d\n", e.rows)
	for i := range e.backends {
		m := e.backends[i].model
		fmt.Fprintf(&b, "%s: %s\n%v\n", backendNames[i], m.Describe(), m.Coefficients())
		for _, q := range benchQs {
			for _, at := range []Point{{Q: q, Lambda: 2}, {Q: q, Lambda: 2, DCM: q / 8, HasDCM: true}} {
				for _, measure := range m.Measures() {
					v, err := m.Predict(measure, at)
					fmt.Fprintf(&b, "%s %+v: %v %v\n", measure, at, v, err)
				}
			}
		}
	}
	return b.String()
}

// truncatedShard writes a copy of a binary shard that ends mid-row.
func truncatedShard(t *testing.T, sc *Scenario) *Scenario {
	t.Helper()
	data, err := os.ReadFile(sc.File)
	if err != nil {
		t.Fatal(err)
	}
	c := *sc
	c.File = filepath.Join(t.TempDir(), filepath.Base(sc.File))
	if err := os.WriteFile(c.File, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestReusedScratchLoadsAsFresh(t *testing.T) {
	// One scratch through shards that grow, shrink, lose part of the miss
	// column, fail halfway and switch format. Every entry is read only
	// after the scratch has gone on to the loads after it, and must answer
	// exactly as a load in a fresh scratch does. Each shard's sizes are
	// shifted by its own offset, so a model that kept a slice of the
	// scratch would read another shard's numbers.
	shifted := func(dq int, cut bool) func(int, results.Row) results.Row {
		return func(i int, row results.Row) results.Row {
			row[1] = results.F("q", row[1].Value.(int)+dq)
			if cut && i == 17 {
				return row[:4]
			}
			return row
		}
	}
	base := sweepShard(t, 96, nil)
	shards := []*Scenario{
		base,                                  // 1152 rows
		sweepShard(t, 8, shifted(1, false)),   // 96
		sweepShard(t, 384, shifted(2, false)), // 4608
		sweepShard(t, 8, shifted(3, true)),    // no multilinear model
		truncatedShard(t, base),               // an error after the columns are half filled
		csvSibling(base),                      // the same rows through the CSV decoder
		sweepShard(t, 1, shifted(4, false)),   // twelve rows
	}
	s := new(loadScratch)
	reused := make([]*entry, len(shards))
	reusedErrs := make([]error, len(shards))
	for i, sc := range shards {
		reused[i], reusedErrs[i] = s.load(sc)
	}
	for i, sc := range shards {
		fresh, err := new(loadScratch).load(sc)
		if fmt.Sprint(err) != fmt.Sprint(reusedErrs[i]) {
			t.Errorf("shard %d: reused scratch err %v, fresh scratch err %v", i, reusedErrs[i], err)
			continue
		}
		if err != nil {
			continue
		}
		if got, want := modelAnswers(reused[i]), modelAnswers(fresh); got != want {
			t.Errorf("shard %d: reused scratch answers\n%s\nfresh scratch answers\n%s", i, got, want)
		}
	}
	if reusedErrs[4] == nil || !strings.Contains(reusedErrs[4].Error(), "truncated") {
		t.Errorf("truncated shard loaded: err = %v", reusedErrs[4])
	}
}

func TestColdLoadByteBudget(t *testing.T) {
	// A cold load in a pooled scratch allocates the models and a few
	// fixed-size buffers, nothing per row: 16 kB at 1152 rows and at 4608
	// (each was about 150 kB per 1152 rows before the scratch was pooled).
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// The pool keeps a put scratch in the putting P's private slot, which a
	// Get on another P does not see: one P, so the loads measure reuse and
	// not the scheduler's migrations. A collection before the warm-up load
	// leaves the heap far from the next one, so the pool is not flushed
	// in the loop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const loads, budget = 50, 16_000
	for _, rowsPerQ := range []int{96, 384} {
		sc := sweepShard(t, rowsPerQ, nil)
		runtime.GC()
		if _, err := loadEntry(sc); err != nil { // grows the pooled scratch to the shard
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < loads; i++ {
			if _, err := loadEntry(sc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perLoad := float64(after.TotalAlloc-before.TotalAlloc) / loads
		t.Logf("%d rows: %.0f B per load", 12*rowsPerQ, perLoad)
		if perLoad > budget {
			t.Errorf("%d rows: %.0f B per load, want <= %d", 12*rowsPerQ, perLoad, budget)
		}
	}
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
// backends, in the pooled scratch (go test -bench LoadEntry -benchmem
// ./internal/results/serve). bin and csv read sibling shards of the same
// rows, one per format.
func BenchmarkLoadEntry(b *testing.B) {
	sc := sweepShard(b, 96, nil)
	for _, tc := range []struct {
		name string
		sc   *Scenario
	}{{"bin", sc}, {"csv", csvSibling(sc)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				e, err := loadEntry(tc.sc)
				if err != nil || e.rows != 1152 {
					b.Fatal(e, err)
				}
			}
		})
	}
}
