package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
)

// This file carries the observability layer's hard constraint: enabling
// the tracer and metrics registry changes no rendered byte, no scenario
// key, no checkpoint hash and no seed. The proof runs the golden trend
// grid twice — unobserved and observed — and compares everything the
// repository treats as output.

// renderTrendWithRows streams the golden grid into a CSV shard sink and
// returns the rendered trend.csv/trend.txt plus the sink directory.
func renderTrendWithRows(t *testing.T, base SweepConfig, g campaign.Grid, dir string) (csv, txt []byte) {
	t.Helper()
	rowsDir := filepath.Join(dir, "rows")
	sink, err := results.NewCSVShardSink(rowsDir)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := StreamSweepGrid(context.Background(), campaign.Config{Workers: 2, Sink: sink}, base, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	reports, err := BuildTrends(pts, TrendCacheKB)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, txtBuf bytes.Buffer
	if err := WriteTrendCSV(&csvBuf, reports); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrendReport(&txtBuf, reports); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), txtBuf.Bytes()
}

// readDirFiles returns name -> contents for every file under dir.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestObservedRunByteIdentical(t *testing.T) {
	base, grid := goldenTrendGrid(t)
	// The optimistic scheduler is the instrumentation-heavy path: spec
	// instants, rollback markers and the SpecStats fold all fire.
	base = withSched(base, mpi.OptimisticParallel)
	grid.Base = base.World

	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	hashBefore := map[string]string{}
	seedBefore := map[string]int64{}
	for _, sc := range scs {
		j := StreamJob(base, sc)
		hashBefore[j.Key] = j.Hash
		seedBefore[sc.Key] = sc.World.Seed
	}

	offDir := t.TempDir()
	csvOff, txtOff := renderTrendWithRows(t, base, grid, offDir)

	o := obs.New(obs.Options{})
	obs.Enable(o)
	defer obs.Disable()

	onDir := t.TempDir()
	csvOn, txtOn := renderTrendWithRows(t, base, grid, onDir)

	if !bytes.Equal(csvOff, csvOn) {
		t.Errorf("trend.csv differs with observability enabled:\noff:\n%s\non:\n%s", csvOff, csvOn)
	}
	if !bytes.Equal(txtOff, txtOn) {
		t.Errorf("trend.txt differs with observability enabled")
	}

	// Scenario keys, derived seeds and checkpoint hashes must not see
	// the observer: re-expand the grid with it enabled and compare.
	scsOn, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scsOn) != len(scs) {
		t.Fatalf("grid expanded to %d scenarios observed, %d unobserved", len(scsOn), len(scs))
	}
	for i, sc := range scsOn {
		if sc.Key != scs[i].Key {
			t.Errorf("scenario %d key changed: %s vs %s", i, sc.Key, scs[i].Key)
		}
		j := StreamJob(base, sc)
		if j.Hash != hashBefore[j.Key] {
			t.Errorf("%s: checkpoint hash changed when observability was enabled", j.Key)
		}
		if sc.World.Seed != seedBefore[sc.Key] {
			t.Errorf("%s: derived seed changed when observability was enabled", sc.Key)
		}
	}

	// Every emitted shard must be byte-identical.
	rowsOff := readDirFiles(t, filepath.Join(offDir, "rows"))
	rowsOn := readDirFiles(t, filepath.Join(onDir, "rows"))
	if len(rowsOff) == 0 {
		t.Fatal("no row shards emitted")
	}
	for name, off := range rowsOff {
		on, ok := rowsOn[name]
		if !ok {
			t.Errorf("shard %s missing from observed run", name)
			continue
		}
		if !bytes.Equal(off, on) {
			t.Errorf("shard %s differs with observability enabled", name)
		}
	}
	if len(rowsOn) != len(rowsOff) {
		t.Errorf("observed run emitted %d shards, unobserved %d", len(rowsOn), len(rowsOff))
	}

	// The observed run must actually have observed something, and its
	// trace must be schema-valid — silence here would mean the identity
	// above proved nothing.
	tf := o.Tracer().Export()
	if err := obs.ValidateTrace(tf); err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	for _, p := range tf.Processes() {
		procs[p] = true
	}
	for _, want := range []string{"campaign", "mpi"} {
		if !procs[want] {
			t.Errorf("trace missing %q process tracks (got %v)", want, tf.Processes())
		}
	}
	if o.Metrics().Counter("campaign_jobs_settled_total").Value() == 0 {
		t.Error("campaign metrics recorded nothing")
	}
	if o.Metrics().Counter("mpi_worlds_total").Value() == 0 {
		t.Error("mpi metrics recorded nothing")
	}
}
