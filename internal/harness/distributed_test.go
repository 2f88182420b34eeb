package harness

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/results"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// gridTrendBytes renders a streamed grid's trend CSV and report, the
// bytes the distributed acceptance criterion compares.
func gridTrendBytes(t *testing.T, pts []GridPoint) (csv, txt []byte) {
	t.Helper()
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

// sinkRows flattens a memory sink into deterministic per-key row dumps.
func sinkRows(s *results.MemorySink) map[string]string {
	out := map[string]string{}
	for _, k := range s.Keys() {
		out[k] = fmt.Sprint(s.Rows(k))
	}
	return out
}

// TestDistributedGridByteIdenticalToSingleProcess is the PR's acceptance
// criterion in miniature: three campaign "processes" (goroutines with
// their own lease managers and sinks — the protocol is identical across
// real processes) partition one trend grid through a shared store. Every
// scenario must execute exactly once in total, and every process's grid
// points, trend bytes and sink rows must match the single-process run
// byte for byte.
func TestDistributedGridByteIdenticalToSingleProcess(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	grid := campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(128, 256, 512)},
		Replications: 2,
		BaseSeed:     1,
	}
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference: no store, no claimer.
	refSink := results.NewMemorySink()
	refPts, err := StreamSweepGrid(context.Background(),
		campaign.Config{Workers: 2, Sink: refSink}, base, grid)
	if err != nil {
		t.Fatal(err)
	}
	refCSV, refTXT := gridTrendBytes(t, refPts)
	refRows := sinkRows(refSink)

	// Three coordinator-free workers over one shared store.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const procs = 3
	var wg sync.WaitGroup
	sinks := make([]*results.MemorySink, procs)
	ptsByProc := make([][]GridPoint, procs)
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		mgr, err := lease.Open(st, fmt.Sprintf("w%d", p), lease.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		sinks[p] = results.NewMemorySink()
		cfg := campaign.Config{
			Workers: 2, Store: st, Claimer: mgr, Sink: sinks[p],
			ClaimBackoff: 2 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ptsByProc[p], errs[p] = StreamSweepGrid(context.Background(), cfg, base, grid)
		}()
	}
	wg.Wait()

	for p := 0; p < procs; p++ {
		if errs[p] != nil {
			t.Fatalf("process %d: %v", p, errs[p])
		}
		csv, txt := gridTrendBytes(t, ptsByProc[p])
		if !bytes.Equal(csv, refCSV) {
			t.Errorf("process %d trend CSV differs from single-process run", p)
		}
		if !bytes.Equal(txt, refTXT) {
			t.Errorf("process %d trend report differs from single-process run", p)
		}
		rows := sinkRows(sinks[p])
		if len(rows) != len(refRows) {
			t.Fatalf("process %d streamed %d keys, want %d", p, len(rows), len(refRows))
		}
		for k, want := range refRows {
			if rows[k] != want {
				t.Errorf("process %d rows for %s differ from single-process run", p, k)
			}
		}
	}

	// The lease audit proves zero duplicated executions across the fleet.
	audit, err := lease.ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit) != len(scs) {
		t.Fatalf("audit covers %d scenarios, want %d", len(audit), len(scs))
	}
	for _, sc := range scs {
		if owners := audit[sc.Key]; len(owners) != 1 {
			t.Errorf("scenario %s executed %d times by %v", sc.Key, len(owners), owners)
		}
	}
	if n, err := st.Len(); err != nil || n != len(scs) {
		t.Errorf("store holds %d checkpoints, want %d (err=%v)", n, len(scs), err)
	}
}

// TestDistributedCrashRecoveryMatchesGolden kills a worker mid-grid: it
// claimed a scenario and stopped heartbeating without storing anything. A
// second worker must steal the expired lease, run the whole grid, and the
// resumed store's output must match the golden single-process bytes.
func TestDistributedCrashRecoveryMatchesGolden(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	grid := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(128, 512)},
		BaseSeed: 1,
	}
	jobs, err := StreamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}

	// Golden single-process bytes.
	refSink := results.NewMemorySink()
	refPts, err := StreamSweepGrid(context.Background(),
		campaign.Config{Workers: 1, Sink: refSink}, base, grid)
	if err != nil {
		t.Fatal(err)
	}
	refCSV, refTXT := gridTrendBytes(t, refPts)

	// The "crashed" worker: claims the first scenario, then dies before
	// running it — its heartbeat stops and the lease expires.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := lease.Options{TTL: 150 * time.Millisecond}
	crashed, err := lease.Open(st, "crashed", opts)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := crashed.TryClaim(jobs[0].Key, jobs[0].Hash); err != nil || s != campaign.ClaimRun {
		t.Fatalf("crashed worker claim = %v, %v", s, err)
	}
	crashed.Close()

	// The survivor runs the full grid against the same store and must
	// steal the stale lease rather than wait forever.
	survivor, err := lease.Open(st, "survivor", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	sink := results.NewMemorySink()
	pts, err := StreamSweepGrid(context.Background(), campaign.Config{
		Workers: 2, Store: st, Claimer: survivor, Sink: sink,
		ClaimBackoff: 10 * time.Millisecond,
	}, base, grid)
	if err != nil {
		t.Fatal(err)
	}
	csv, txt := gridTrendBytes(t, pts)
	if !bytes.Equal(csv, refCSV) || !bytes.Equal(txt, refTXT) {
		t.Error("recovered grid output differs from golden bytes")
	}
	refRows, rows := sinkRows(refSink), sinkRows(sink)
	for k, want := range refRows {
		if rows[k] != want {
			t.Errorf("recovered rows for %s differ from golden", k)
		}
	}

	// Every scenario — including the stolen one — executed exactly once,
	// all by the survivor.
	audit, err := lease.ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if owners := audit[j.Key]; len(owners) != 1 || owners[0] != "survivor" {
			t.Errorf("scenario %s executed by %v, want survivor exactly once", j.Key, owners)
		}
	}
}

// TestDistributedConfigWiring covers the convenience constructor the
// commands use.
func TestDistributedConfigWiring(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cc, mgr, err := DistributedConfig(campaign.Config{Workers: 3}, dir, "w1", lease.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if cc.Store == nil || cc.Claimer == nil || cc.Workers != 3 {
		t.Fatalf("config not wired: %+v", cc)
	}
	if mgr.Owner() != "w1" {
		t.Errorf("owner = %q", mgr.Owner())
	}
	// Empty owner derives a host-pid identity.
	_, mgr2, err := DistributedConfig(campaign.Config{}, dir, "", lease.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if mgr2.Owner() == "" || mgr2.Owner() == mgr.Owner() {
		t.Errorf("derived owner = %q", mgr2.Owner())
	}
}
