package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/mpi"
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

// record records cfg's charges into a fresh trace.
func record(t *testing.T, cfg SweepConfig) (*SweepResult, *platform.Trace) {
	t.Helper()
	trace := new(platform.Trace)
	res, err := runSweep(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

// walk walks trace's streams on cfg's cache into a fresh walk.
func walk(t *testing.T, trace *platform.Trace, cfg SweepConfig) *platform.Walk {
	t.Helper()
	w := new(platform.Walk)
	if err := trace.Walk(cfg.World.Cache, w); err != nil {
		t.Fatal(err)
	}
	return w
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

// TestRepricedSweepMatchesLive is the differential check of pricing: every
// kernel's sweep, recorded once at one seed and priced at every default
// point of every trend axis at another seed, equals the live sweep on that
// machine at that seed, point for point and byte for byte in its encoded
// rows. Godunov and EFM issue the same streams, so both are priced from
// one walk per point, of Godunov's recording, as a grid shares it.
func TestRepricedSweepMatchesLive(t *testing.T) {
	t.Parallel()
	kernels := []Kernel{KernelStates, KernelGodunov, KernelEFM}
	recorded := map[Kernel]*SweepResult{}
	traces := map[Kernel]*platform.Trace{}
	for _, k := range kernels {
		cfg := repriceSweepConfig(k)
		cfg.World.Seed = 7
		recorded[k], traces[k] = record(t, cfg)
	}
	if !traces[KernelGodunov].SameStreams(traces[KernelEFM]) {
		t.Fatal("Godunov and EFM record different streams")
	}
	type point struct {
		name  string
		apply func(*mpi.WorldConfig)
		walks map[Kernel]*platform.Walk // by kernel priced
	}
	var points []point
	for _, axis := range trendAxes {
		dim, err := axis.Dimension(axis.Defaults)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range dim.Values {
			at := repriceSweepConfig(KernelStates)
			v.Apply(&at.World)
			flux := walk(t, traces[KernelGodunov], at)
			points = append(points, point{axis.Name + "=" + v.Key, v.Apply, map[Kernel]*platform.Walk{
				KernelStates: walk(t, traces[KernelStates], at), KernelGodunov: flux, KernelEFM: flux,
			}})
		}
	}
	for _, k := range kernels {
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			for _, pt := range points {
				at := repriceSweepConfig(k)
				at.World.Seed = 1007
				pt.apply(&at.World)
				live, err := RunSweep(at)
				if err != nil {
					t.Fatal(err)
				}
				priced, err := priceSweep(at, traces[k], pt.walks[k], recorded[k].Points)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(priced.Points, live.Points); err != nil {
					t.Errorf("%s: priced sweep differs from live: %v", pt.name, err)
				}
				if !bytes.Equal(encodedRows(t, priced), encodedRows(t, live)) {
					t.Errorf("%s: priced rows encode differently from live", pt.name)
				}
				if !reflect.DeepEqual(priced.Config, at) {
					t.Errorf("%s: priced sweep carries config %+v", pt.name, priced.Config)
				}
			}
		})
	}
}

// TestSweepTraceHoldsNoClockCharge: a recording walks no cache, so its
// clock lacks the streams' prices, and a charge taken off that clock
// (Advance, SyncTo) would be priced wrong; Price refuses a trace that
// holds one. A sweep of the benchmark's shape records only streams,
// flops, calls, cycles and marks, so every kernel's recording prices, with
// a mark before and after each of its points.
func TestSweepTraceHoldsNoClockCharge(t *testing.T) {
	t.Parallel()
	for _, k := range []Kernel{KernelStates, KernelGodunov, KernelEFM} {
		cfg := benchSweep(k)
		recorded, trace := record(t, cfg)
		if len(recorded.Points) == 0 {
			t.Fatalf("%s: the recording has no points", k)
		}
		if _, err := priceSweep(cfg, trace, walk(t, trace, cfg), recorded.Points); err != nil {
			t.Errorf("%s: %v", k, err)
		}
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

// groupCounts sums what a job list's groups did: recordings made, walks
// made and members priced.
func groupCounts(groups []*sweepGroup) (recorded, walked, priced int64) {
	seen := map[*sweepGroup]bool{}
	for _, g := range groups {
		if g != nil && !seen[g] {
			seen[g] = true
			recorded += g.recorded.Load()
			walked += g.walked.Load()
			priced += g.priced.Load()
		}
	}
	return recorded, walked, priced
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
// once per group, walks once per group and cache size, and prices every
// member; run again over the now warm store, every job is served from it,
// so no kernel runs and nothing is recorded, walked or priced.
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
	if rec, wk, pr := groupCounts(groups); rec != 2 || wk != 6 || pr != 6 {
		t.Fatalf("cold run: %d recorded, %d walked and %d priced, want 2, 6 and 6", rec, wk, pr)
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
	if rec, wk, pr := groupCounts(groups); rec != 2 || wk != 6 || pr != 6 {
		t.Errorf("warm run: %d recorded, %d walked and %d priced in all, want still 2, 6 and 6", rec, wk, pr)
	}
}

// TestSweepGroupRecordsOncePerRun: one cold job list run twice records
// once per group and walks once per group and cache size in each run — no
// recording or walk is kept from one run for the next — and both runs give
// the same grid points.
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
		if rec, wk, pr := groupCounts(groups); rec != int64(2*(i+1)) || wk != int64(6*(i+1)) || pr != int64(6*(i+1)) {
			t.Fatalf("after run %d: %d recorded, %d walked and %d priced, want %d, %d and %d",
				i+1, rec, wk, pr, 2*(i+1), 6*(i+1), 6*(i+1))
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

// TestSweepGroupLiveFailure: the member that records first panics (its
// machine has an impossible cache). The failure is its own job's error;
// the next member records in its place, on one worker after it and on two
// workers perhaps while waiting for it, and both other members equal their
// plain sweeps.
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
		if rec, wk, pr := g.recorded.Load(), g.walked.Load(), g.priced.Load(); rec != 1 || wk != 2 || pr != 2 {
			t.Errorf("%d workers: %d recorded, %d walked and %d priced, want 1, 2 and 2", workers, rec, wk, pr)
		}
	}
}

// TestSweepGroupWorkerCountInvariance: a grid of grouped sweeps writes the
// same CSV and binary shards, byte for byte, on one worker and on two,
// whichever member of a group happens to record.
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

// TestSweepGroupsShareWalks: a walk depends on the streams and the cache
// alone. Godunov and EFM record the same streams, so over two cache sizes
// three kernels make three recordings and four walks, and every member is
// priced; a CPU clock axis walks once per kernel. Every grid point equals
// its plain sweep's.
func TestSweepGroupsShareWalks(t *testing.T) {
	t.Parallel()
	base := repriceSweepConfig(KernelStates)
	base.Reps = 1
	for _, c := range []struct {
		name                           string
		axes                           []campaign.Dimension
		recorded, walked, pricedPoints int64
	}{
		{"cache", []campaign.Dimension{campaign.CacheAxis(128, 1024), campaign.FluxAxis("states", "godunov", "efm")}, 3, 4, 6},
		{"clock", []campaign.Dimension{campaign.CPUClockAxis(0.5, 2), campaign.FluxAxis("states", "efm")}, 2, 2, 4},
	} {
		grid := campaign.Grid{Base: base.World, Axes: c.axes, BaseSeed: 3}
		jobs, groups, err := streamJobs(base, grid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.Run(context.Background(), campaign.Config{Workers: 1}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if rec, wk, pr := groupCounts(groups); rec != c.recorded || wk != c.walked || pr != c.pricedPoints {
			t.Errorf("%s: %d recorded, %d walked and %d priced, want %d, %d and %d",
				c.name, rec, wk, pr, c.recorded, c.walked, c.pricedPoints)
		}
		scs, err := grid.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			plain, err := campaign.Run(context.Background(), campaign.Config{}, []campaign.Job{StreamJob(base, sc)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[i].Value, plain[0].Value) {
				t.Errorf("%s: %s differs from its plain sweep", c.name, sc.Key)
			}
		}
	}
}

// TestSharedWalkComparesStreams: a Run's walks are found by stream digest
// and cache, but a digest does not tell streams apart, so a trace reuses a
// walk only when its streams equal, element by element, those of the trace
// the walk was made for. Here every trace claims one digest: a trace with
// the same streams among other charges shares the first walk, and one
// whose streams differ in a single stride gets a walk of its own.
func TestSharedWalkComparesStreams(t *testing.T) {
	t.Parallel()
	rec := func(stride int, extra bool) *platform.Trace {
		trace := new(platform.Trace)
		p := platform.NewProc(0, platform.XeonModel(), cache.XeonL2(), 1)
		p.RecordTo(trace)
		p.ChargeStream(1<<20, 4096, 8)
		if extra {
			p.ChargeFlops(100)
		}
		p.ChargeStream(1<<22, 512, stride)
		p.RecordTo(nil)
		return trace
	}
	traces := []*platform.Trace{rec(296, false), rec(296, true), rec(304, false)}
	var walked atomic.Int64
	jobs := make([]campaign.Job, len(traces))
	for i, trace := range traces {
		jobs[i] = campaign.Job{Key: fmt.Sprint("t", i), Run: func(ctx context.Context, _ map[string]any) (any, error) {
			return sharedWalk(ctx, trace, 1, cache.XeonL2(), &walked)
		}}
	}
	res, err := campaign.Run(context.Background(), campaign.Config{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != res[1].Value {
		t.Error("a trace with the same streams walked again")
	}
	if res[0].Value == res[2].Value {
		t.Error("a trace whose streams differ in one stride took another trace's walk")
	}
	if walked.Load() != 2 {
		t.Errorf("%d walks, want 2", walked.Load())
	}
}

// TestOnceOKTakesOverFailedWork: work that fails, by an error or a panic,
// is left undone for the next caller, who does it again; once it has
// succeeded nobody runs it, and a caller that finds it in progress waits
// for the outcome, or for its context.
func TestOnceOKTakesOverFailedWork(t *testing.T) {
	t.Parallel()
	var o onceOK
	ctx := context.Background()
	runs := 0
	if err := o.do(ctx, func() error { runs++; return fmt.Errorf("boom") }); err == nil {
		t.Fatal("a failed run returned nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panic in the work did not reach its caller")
			}
		}()
		o.do(ctx, func() error { runs++; panic("boom") })
	}()

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		done <- o.do(ctx, func() error { runs++; close(started); <-release; return nil })
	}()
	<-started
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := o.do(canceled, func() error { runs++; return nil }); err != context.Canceled {
		t.Errorf("a caller waiting with a canceled context returned %v", err)
	}
	waiter := make(chan error)
	go func() { waiter <- o.do(ctx, func() error { runs++; return nil }) }()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-waiter; err != nil {
		t.Errorf("the waiting caller returned %v", err)
	}
	if err := o.do(ctx, func() error { runs++; return nil }); err != nil || runs != 3 {
		t.Errorf("after the work succeeded: err %v, %d runs, want nil and 3", err, runs)
	}
}
