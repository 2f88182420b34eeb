package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/platform"
	"repro/internal/results"
	"repro/internal/results/store"
)

// repriceSweepConfig is a one-rank sweep whose largest patch overflows
// every trend-axis cache, with a second repetition over a warm cache.
func repriceSweepConfig(k Kernel) SweepConfig {
	cfg := tinySweep(k)
	cfg.Reps = 2
	cfg.World.Procs = 1
	return cfg
}

// record runs cfg live, recording its charges into a fresh trace.
func record(t *testing.T, cfg SweepConfig) (*SweepResult, *platform.Trace) {
	t.Helper()
	trace := new(platform.Trace)
	res, err := runSweep(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

// sameBits reports whether two sweeps' points agree bit for bit.
func sameBits(a, b []SweepPoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d points, want %d", len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Rank != q.Rank || p.Q != q.Q || p.Mode != q.Mode ||
			math.Float64bits(p.WallUS) != math.Float64bits(q.WallUS) ||
			math.Float64bits(p.Misses) != math.Float64bits(q.Misses) {
			return fmt.Errorf("point %d is %+v, want %+v", i, p, q)
		}
	}
	return nil
}

// encodedRows is a sweep's rows as a CSV shard encodes them.
func encodedRows(t *testing.T, res *SweepResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := results.NewCSVEncoder(&buf)
	for _, row := range res.Rows() {
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRepricedSweepMatchesLive is the differential check of re-pricing:
// for every kernel, a sweep recorded once on the calibrated machine at one
// seed and priced at every default point of every trend axis, at another
// seed, equals the live sweep on that machine at that seed, point for
// point and byte for byte in its encoded rows.
func TestRepricedSweepMatchesLive(t *testing.T) {
	t.Parallel()
	for _, k := range []Kernel{KernelStates, KernelGodunov, KernelEFM} {
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			cfg := repriceSweepConfig(k)
			cfg.World.Seed = 7
			recorded, trace := record(t, cfg)
			for _, axis := range trendAxes {
				dim, err := axis.Dimension(axis.Defaults)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range dim.Values {
					at := cfg
					at.World.Seed = 1007
					v.Apply(&at.World)
					live, err := RunSweep(at)
					if err != nil {
						t.Fatal(err)
					}
					priced, err := repriceSweep(at, trace, recorded.Points)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(priced.Points, live.Points); err != nil {
						t.Errorf("%s=%s: priced sweep differs from live: %v", axis.Name, v.Key, err)
					}
					if !bytes.Equal(encodedRows(t, priced), encodedRows(t, live)) {
						t.Errorf("%s=%s: priced rows encode differently from live", axis.Name, v.Key)
					}
					if !reflect.DeepEqual(priced.Config, at) {
						t.Errorf("%s=%s: priced sweep carries config %+v", axis.Name, v.Key, priced.Config)
					}
				}
			}
		})
	}
}

// groupedGrid is a one-rank grid of two programs (States and EFM), each
// at three cache sizes.
func groupedGrid() (SweepConfig, campaign.Grid) {
	base := repriceSweepConfig(KernelStates)
	base.Reps = 1
	return base, campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(128, 256, 1024), campaign.FluxAxis("states", "efm")},
		BaseSeed: 3,
	}
}

// groupCounts sums what a job list's groups did: members measured live
// with a recording and members priced from one.
func groupCounts(groups []*sweepGroup) (recorded, priced int64) {
	seen := map[*sweepGroup]bool{}
	for _, g := range groups {
		if g != nil && !seen[g] {
			seen[g] = true
			recorded += g.recorded.Load()
			priced += g.priced.Load()
		}
	}
	return recorded, priced
}

// TestSweepGroupsFormPerProgram checks the grouping: one group per kernel,
// with every cache size of that kernel in it.
func TestSweepGroupsFormPerProgram(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	jobs, groups, err := streamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	byKernel := map[string]*sweepGroup{}
	for i, g := range groups {
		parts := strings.Split(jobs[i].Key, "/") // .../c<N>kB/<flux>/r0
		k := parts[len(parts)-2]
		if g == nil {
			t.Fatalf("%s is in no group", jobs[i].Key)
		}
		if byKernel[k] == nil {
			byKernel[k] = g
		}
		if byKernel[k] != g {
			t.Errorf("%s is not in the group of the other %s scenarios", jobs[i].Key, k)
		}
	}
	if len(byKernel) != 2 || byKernel["states"] == byKernel["efm"] {
		t.Errorf("want one group per kernel, got %v", byKernel)
	}

	// More than one rank, or a grid with one scenario per program, forms
	// no group.
	multi := base
	multi.World.Procs = 2
	grid.Base = multi.World
	if _, groups, err = streamJobs(multi, grid); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g != nil {
			t.Fatal("a two-rank sweep joined a group")
		}
	}
	grid.Base = base.World
	grid.Axes = grid.Axes[1:]
	if _, groups, err = streamJobs(base, grid); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g != nil {
			t.Fatal("a program with one scenario formed a group")
		}
	}
}

// TestSweepGroupWarmStoreRecordsNothing: a cold run over a store records
// once per group and prices the other members; run again over the now
// warm store, every job is served from it, so no kernel runs and nothing
// is recorded.
func TestSweepGroupWarmStoreRecordsNothing(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	jobs, groups, err := streamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cc := campaign.Config{Workers: 1, Store: st}
	cold, err := campaign.Run(context.Background(), cc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rec, pr := groupCounts(groups); rec != 2 || pr != 4 {
		t.Fatalf("cold run: %d recorded and %d priced, want 2 and 4", rec, pr)
	}
	warm, err := campaign.Run(context.Background(), cc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range warm {
		if !r.Cached {
			t.Errorf("%s ran over a warm store", r.Key)
		}
		if !reflect.DeepEqual(r.Value, cold[i].Value) {
			t.Errorf("%s: the store serves another grid point", r.Key)
		}
	}
	if rec, pr := groupCounts(groups); rec != 2 || pr != 4 {
		t.Errorf("warm run: %d recorded and %d priced in all, want still 2 and 4", rec, pr)
	}
}

// TestSweepGroupRecordsOncePerRun: one cold job list run twice records
// once per group in each run — no recording is kept from one run for the
// next — and both runs give the same grid points.
func TestSweepGroupRecordsOncePerRun(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	jobs, groups, err := streamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]campaign.Result
	for i := range runs {
		if runs[i], err = campaign.Run(context.Background(), campaign.Config{Workers: 1}, jobs); err != nil {
			t.Fatal(err)
		}
		if rec, pr := groupCounts(groups); rec != int64(2*(i+1)) || pr != int64(4*(i+1)) {
			t.Fatalf("after run %d: %d recorded and %d priced, want %d and %d", i+1, rec, pr, 2*(i+1), 4*(i+1))
		}
	}
	if !sameValues(runs[0], runs[1]) {
		t.Error("the second run's grid points differ from the first's")
	}
}

// sameValues compares two runs' job values, ignoring host timings.
func sameValues(a, b []campaign.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !reflect.DeepEqual(a[i].Value, b[i].Value) || a[i].Err != nil || b[i].Err != nil {
			return false
		}
	}
	return true
}

// TestSweepGroupLiveFailure: the member that records panics (its machine
// has an impossible cache). The failure is its own job's error; on one
// worker the next member records in its place and the last is priced, and
// on one worker or two both equal their plain sweeps.
func TestSweepGroupLiveFailure(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	grid.Axes = grid.Axes[:1]
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	bad := scs[0]
	bad.Key = "c100kB/r0"
	bad.World.Cache.SizeBytes = 100 << 10 // 200 sets: not a power of two
	members := append([]campaign.Scenario{bad}, scs[1:]...)

	want := make([]any, len(members))
	for i, sc := range members[1:] {
		res, err := campaign.Run(context.Background(), campaign.Config{}, []campaign.Job{StreamJob(base, sc)})
		if err != nil {
			t.Fatal(err)
		}
		want[i+1] = res[0].Value
	}
	for _, workers := range []int{1, 2} {
		g := new(sweepGroup)
		jobs := make([]campaign.Job, len(members))
		for i, sc := range members {
			jobs[i] = streamJob(gridHasher(base), base, sc, g)
		}
		done := make(chan []campaign.Result)
		go func() {
			res, _ := campaign.Run(context.Background(), campaign.Config{Workers: workers}, jobs)
			done <- res
		}()
		var res []campaign.Result
		select {
		case res = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%d workers: a group with a failed live member hangs", workers)
		}
		if res[0].Err == nil {
			t.Errorf("%d workers: the member with an impossible cache succeeded", workers)
		}
		for i, r := range res[1:] {
			if r.Err != nil {
				t.Errorf("%d workers: %s failed with its group: %v", workers, r.Key, r.Err)
			} else if !reflect.DeepEqual(r.Value, want[i+1]) {
				t.Errorf("%d workers: %s differs from its plain sweep", workers, r.Key)
			}
		}
		rec, pr, live := g.recorded.Load(), g.priced.Load(), g.live.Load()
		if rec+pr+live != int64(len(members)) || workers == 1 && (rec != 2 || pr != 1) {
			t.Errorf("%d workers: %d recorded, %d priced and %d live", workers, rec, pr, live)
		}
	}
}

// TestSweepGroupWorkerCountInvariance: a grid of grouped sweeps writes the
// same CSV and binary shards, byte for byte, on one worker and on two,
// whichever member of a group happens to run live.
func TestSweepGroupWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	shards := func(workers int) map[string][]byte {
		dir := t.TempDir()
		csvSink, err := results.NewCSVShardSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		binSink, err := results.NewBinShardSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink := results.NewTee(csvSink, binSink)
		if _, err := StreamSweepGrid(context.Background(), campaign.Config{Workers: workers, Sink: sink}, base, grid); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return readDirFiles(t, dir)
	}
	one, two := shards(1), shards(2)
	if len(one) != 12 {
		t.Fatalf("%d shard files, want 12", len(one))
	}
	for name, data := range one {
		if !bytes.Equal(data, two[name]) {
			t.Errorf("%s differs between 1 and 2 workers", name)
		}
	}
}
