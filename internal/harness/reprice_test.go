package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/cca"
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

// record records cfg's program, on the fixed machine a sweep records it
// on, into a fresh trace.
func record(t *testing.T, cfg SweepConfig) (*SweepResult, *platform.Trace) {
	t.Helper()
	trace := new(platform.Trace)
	res, err := runSweep(program(cfg), trace)
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

// TestRepricedSweepMatchesLive is the differential check of pricing, and
// of the premise that a program's charges read no machine: every kernel's
// program, recorded once on the fixed machine a sweep records it on and
// priced at every default point of every trend axis at another seed,
// equals the live sweep on that machine at that seed (runSweep with no
// trace, whose Proc walks its cache), point for point and byte for byte in
// its encoded rows. A kernel charge that read the machine (the cache size,
// the clock) would record the fixed machine's charge and fail here.
// Godunov and EFM issue the same streams, so both are priced from one walk
// per point, of Godunov's recording, as a grid shares it.
func TestRepricedSweepMatchesLive(t *testing.T) {
	t.Parallel()
	kernels := []Kernel{KernelStates, KernelGodunov, KernelEFM}
	recorded := map[Kernel]*SweepResult{}
	traces := map[Kernel]*platform.Trace{}
	for _, k := range kernels {
		recorded[k], traces[k] = record(t, repriceSweepConfig(k))
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
				live, err := runSweep(at, nil)
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

// TestSweepRanksMatchRankZero guards the premise a sweep stands on: every
// rank of a live multi-rank sweep records rank 0's points, so a sweep
// simulates rank 0 alone and copies it to every rank. Each kernel's sweep
// runs live on every rank of a three-rank world and must equal the
// production sweep, rank 0 priced and relabelled, point for point and
// byte for byte in its encoded rows. A kernel charge that read the rank,
// or data that differs by rank, would fail here rather than be copied.
func TestSweepRanksMatchRankZero(t *testing.T) {
	t.Parallel()
	for _, k := range []Kernel{KernelStates, KernelGodunov, KernelEFM} {
		cfg := tinySweep(k)
		cfg.World.Procs = 3
		perRank := make([][]SweepPoint, cfg.World.Procs)
		err := cca.RunSCMD(mpi.NewWorld(cfg.World), func(f *cca.Framework, r *mpi.Rank) (err error) {
			perRank[r.Rank()], err = sweepRank(f, r.Proc, cfg, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		live := &SweepResult{Config: cfg, Points: slices.Concat(perRank...)}
		copied, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(copied.Points, live.Points); err != nil {
			t.Errorf("%s: the copied ranks differ from a live three-rank sweep: %v", k, err)
		}
		if !bytes.Equal(encodedRows(t, copied), encodedRows(t, live)) {
			t.Errorf("%s: the copied ranks' rows encode differently from a live three-rank sweep", k)
		}
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

// tally is what one Run's sweeps did: recordings made, walks made and
// sweeps priced.
type tally [3]int64

// tallyJob is a job, after the jobs named, that reads the Run's sweep
// tally into got before the Run releases it.
func tallyJob(after []string, got *tally) campaign.Job {
	return campaign.Job{Key: "tally", After: after, Run: func(ctx context.Context, _ map[string]any) (any, error) {
		st, err := shareOnce(ctx, tallyKey{}, newTally, nil)
		if err != nil {
			return nil, err
		}
		*got = tally{st.recorded.Load(), st.walked.Load(), st.priced.Load()}
		return nil, nil
	}}
}

// runTallied runs jobs in one Run on cc, and returns their results and
// what the Run's sweeps did.
func runTallied(t *testing.T, cc campaign.Config, jobs []campaign.Job) ([]campaign.Result, tally) {
	t.Helper()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key
	}
	var got tally
	res, err := campaign.Run(context.Background(), cc, append(slices.Clone(jobs), tallyJob(keys, &got)))
	if err != nil {
		t.Fatal(err)
	}
	return res[:len(jobs)], got
}

// streamJobs is StreamJobs, failing the test on an error.
func streamJobs(t *testing.T, base SweepConfig, g campaign.Grid) []campaign.Job {
	t.Helper()
	jobs, err := StreamJobs(base, g)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestSweepGroupsFormPerProgram: the sweeps of a Run that run one program
// share its recording, so a grid of two kernels at three cache sizes
// records twice, walks six times and prices every scenario, on one worker
// and on two. The rank count is not part of a program: the same grid at
// three ranks makes the same recordings, walks and prices. A program with
// one scenario records, walks and prices once.
func TestSweepGroupsFormPerProgram(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	multi, multiGrid := base, grid
	multi.World.Procs = 3
	multiGrid.Base = multi.World
	lone := grid
	lone.Axes = grid.Axes[1:]
	for _, workers := range []int{1, 2} {
		cc := campaign.Config{Workers: workers}
		for _, c := range []struct {
			name string
			base SweepConfig
			grid campaign.Grid
			want tally
		}{
			{"one-rank grid", base, grid, tally{2, 6, 6}},
			{"three-rank grid", multi, multiGrid, tally{2, 6, 6}},
			{"one scenario per program", base, lone, tally{2, 2, 2}},
		} {
			if _, got := runTallied(t, cc, streamJobs(t, c.base, c.grid)); got != c.want {
				t.Errorf("%d workers, %s: %d recorded, %d walked and %d priced, want %v",
					workers, c.name, got[0], got[1], got[2], c.want)
			}
		}
	}
}

// TestSweepGroupSharesFigureSweep: Fig. 4's States sweep and the default
// trend grid's States scenarios run one program, so one Run of both
// records States once, walks the 512 kB cache once for the sweep and the
// grid's 512 kB member, and prices all five; the sweep's rows are that
// member's.
func TestSweepGroupSharesFigureSweep(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	base.World.Procs = 3
	dim, err := TrendCacheKB.Dimension(TrendCacheKB.Defaults)
	if err != nil {
		t.Fatal(err)
	}
	grid := campaign.Grid{Base: base.World, Axes: []campaign.Dimension{dim, campaign.FluxAxis("states")}, BaseSeed: 1}
	jobs := append([]campaign.Job{SweepJob("sweep/states", base)}, streamJobs(t, base, grid)...)
	for _, workers := range []int{1, 2} {
		sink := results.NewMemorySink()
		if _, got := runTallied(t, campaign.Config{Workers: workers, Sink: sink}, jobs); got != (tally{1, 4, 5}) {
			t.Errorf("%d workers: %d recorded, %d walked and %d priced, want 1, 4 and 5", workers, got[0], got[1], got[2])
		}
		sweep, member := sink.Rows("sweep/states"), sink.Rows("p3/base/c512kB/states/r0")
		if len(sweep) == 0 || !reflect.DeepEqual(sweep, member) {
			t.Errorf("%d workers: the sweep's %d rows are not the 512 kB member's %d", workers, len(sweep), len(member))
		}
	}
}

// TestSweepGroupWarmStoreRecordsNothing: a cold run over a store records
// once per program, walks once per program and cache size, and prices
// every scenario; run again over the now warm store, every job is served
// from it, so no kernel runs and nothing is recorded, walked or priced.
func TestSweepGroupWarmStoreRecordsNothing(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	jobs := streamJobs(t, base, grid)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cc := campaign.Config{Workers: 1, Store: st}
	cold, got := runTallied(t, cc, jobs)
	if got != (tally{2, 6, 6}) {
		t.Fatalf("cold run: %d recorded, %d walked and %d priced, want 2, 6 and 6", got[0], got[1], got[2])
	}
	warm, got := runTallied(t, cc, jobs)
	for i, r := range warm {
		if !r.Cached {
			t.Errorf("%s ran over a warm store", r.Key)
		}
		if !reflect.DeepEqual(r.Value, cold[i].Value) {
			t.Errorf("%s: the store serves another grid point", r.Key)
		}
	}
	if got != (tally{}) {
		t.Errorf("warm run: %d recorded, %d walked and %d priced, want none", got[0], got[1], got[2])
	}
}

// TestSweepGroupRecordsOncePerRun: one cold job list run twice records
// once per program and walks once per program and cache size in each run
// — no recording or walk is kept from one run for the next — and both
// runs give the same grid points.
func TestSweepGroupRecordsOncePerRun(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	jobs := streamJobs(t, base, grid)
	var runs [2][]campaign.Result
	for i := range runs {
		var got tally
		runs[i], got = runTallied(t, campaign.Config{Workers: 1}, jobs)
		if got != (tally{2, 6, 6}) {
			t.Fatalf("run %d: %d recorded, %d walked and %d priced, want 2, 6 and 6", i+1, got[0], got[1], got[2])
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

// TestSweepGroupLiveFailure: a sweep whose machine has an impossible
// cache (200 sets: not a power of two) shares its program's recording,
// which is made on a fixed machine and succeeds, and fails in its own
// walk, with an error that names its cache geometry. Its siblings take the
// recording and walk and price as if it were not there: each equals its
// plain sweep. That holds with the bad sweep first and last, on one worker
// and on two: one recording, two walks and two sweeps priced.
func TestSweepGroupLiveFailure(t *testing.T) {
	t.Parallel()
	base, grid := groupedGrid()
	grid.Axes = grid.Axes[:1]
	good, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	bad := good[0]
	bad.Key = "c100kB/r0"
	bad.World.Cache.SizeBytes = 100 << 10
	good = good[1:]

	want := map[string]any{}
	var goodKeys []string
	for _, sc := range good {
		res, err := campaign.Run(context.Background(), campaign.Config{}, []campaign.Job{StreamJob(base, sc)})
		if err != nil {
			t.Fatal(err)
		}
		want[sc.Key] = res[0].Value
		goodKeys = append(goodKeys, sc.Key)
	}
	for _, order := range []struct {
		name    string
		members []campaign.Scenario
	}{
		{"first", append([]campaign.Scenario{bad}, good...)},
		{"last", append(slices.Clone(good), bad)},
	} {
		for _, workers := range []int{1, 2} {
			jobs := make([]campaign.Job, len(order.members))
			for i, sc := range order.members {
				jobs[i] = StreamJob(base, sc)
			}
			var got tally
			jobs = append(jobs, tallyJob(goodKeys, &got))
			res, _ := campaign.Run(context.Background(), campaign.Config{Workers: workers}, jobs)
			for _, r := range res[:len(order.members)] {
				switch {
				case r.Key == bad.Key && r.Err == nil:
					t.Errorf("bad %s, %d workers: the sweep with an impossible cache succeeded", order.name, workers)
				case r.Key == bad.Key && !strings.Contains(r.Err.Error(), "SizeBytes:102400"):
					t.Errorf("bad %s, %d workers: the error does not name the cache geometry: %v", order.name, workers, r.Err)
				case r.Key != bad.Key && r.Err != nil:
					t.Errorf("bad %s, %d workers: %s failed with its program: %v", order.name, workers, r.Key, r.Err)
				case r.Key != bad.Key && !reflect.DeepEqual(r.Value, want[r.Key]):
					t.Errorf("bad %s, %d workers: %s differs from its plain sweep", order.name, workers, r.Key)
				}
			}
			if got != (tally{1, 2, 2}) {
				t.Errorf("bad %s, %d workers: %d recorded, %d walked and %d priced, want 1, 2 and 2",
					order.name, workers, got[0], got[1], got[2])
			}
		}
	}
}

// TestSweepGroupWorkerCountInvariance: a grid of grouped sweeps writes the
// same CSV and binary shards, byte for byte, on one worker and on two,
// whichever sweep of a program happens to record.
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
// three kernels make three recordings and four walks, and every scenario
// is priced; a CPU clock axis walks once per kernel. The counts hold on
// one worker and on two, and every grid point equals its plain sweep's.
func TestSweepGroupsShareWalks(t *testing.T) {
	t.Parallel()
	base := repriceSweepConfig(KernelStates)
	base.Reps = 1
	for _, c := range []struct {
		name string
		axes []campaign.Dimension
		want tally
	}{
		{"cache", []campaign.Dimension{campaign.CacheAxis(128, 1024), campaign.FluxAxis("states", "godunov", "efm")}, tally{3, 4, 6}},
		{"clock", []campaign.Dimension{campaign.CPUClockAxis(0.5, 2), campaign.FluxAxis("states", "efm")}, tally{2, 2, 4}},
	} {
		grid := campaign.Grid{Base: base.World, Axes: c.axes, BaseSeed: 3}
		jobs := streamJobs(t, base, grid)
		var res []campaign.Result
		for _, workers := range []int{1, 2} {
			var got tally
			if res, got = runTallied(t, campaign.Config{Workers: workers}, jobs); got != c.want {
				t.Errorf("%s, %d workers: %d recorded, %d walked and %d priced, want %v",
					c.name, workers, got[0], got[1], got[2], c.want)
			}
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

// TestSharedWalkComparesStreams: a Run shares one walk per stream digest
// and cache, but a digest does not tell streams apart, so a trace takes
// the shared walk only when its streams equal, element by element, those
// of the trace the walk was made of. Here three traces claim one digest: a
// trace with the same streams among other charges shares the first walk,
// and one whose streams differ in a single stride walks on its own.
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

// TestShareOncePanicFailsEveryJob: a shared value whose maker panics is
// made once, and every job that asks for it takes the panic as its error,
// on one worker and on two; the Run returns all of them, and ends without
// releasing the value or making it again.
func TestShareOncePanicFailsEveryJob(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2} {
		var made atomic.Int64
		jobs := make([]campaign.Job, 3)
		for i := range jobs {
			jobs[i] = campaign.Job{Key: fmt.Sprint("j", i), Run: func(ctx context.Context, _ map[string]any) (any, error) {
				return shareOnce(ctx, "boom", func() (int, error) {
					made.Add(1)
					panic("boom")
				}, func(int) { t.Error("a value that was never made was released") })
			}}
		}
		res, err := campaign.Run(context.Background(), campaign.Config{Workers: workers}, jobs)
		if err == nil {
			t.Fatalf("%d workers: a Run whose shared value panics succeeded", workers)
		}
		for _, r := range res {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panic: boom") {
				t.Errorf("%d workers: %s returned %v, want the maker's panic", workers, r.Key, r.Err)
			}
		}
		if made.Load() != 1 {
			t.Errorf("%d workers: the maker ran %d times, want once", workers, made.Load())
		}
	}
}
