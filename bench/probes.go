package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/amr"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/results"
	"repro/internal/results/serve"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
	"repro/internal/tau"
)

// The probes time calls into each layer's public functions at one fixed
// shape, so that a number means the same thing in every run. They are the
// per-layer costs the budget composes; a traced run of any workload runs
// all of them after its passes.

// probeShape sizes the probes; tests shrink it.
type probeShape struct {
	// batchNS is how long one timed batch of a short operation runs;
	// zero times every operation exactly once.
	batchNS float64
	// mpiProcs is the world size of the scheduler probes.
	mpiProcs int
	// caseSteps is the driver step count of the reduced case study.
	caseSteps int
	// catalog shapes the serving probes' catalog: replications per
	// coordinate and rows per array size.
	catalogReps, catalogRowsPerQ int
}

var defaultProbes = probeShape{batchNS: 20e6, mpiProcs: 16, caseSteps: 8, catalogReps: 8, catalogRowsPerQ: 96}

// timeOp returns the median nanoseconds one call of f takes. A first call
// warms caches and sizes the batches: short operations run in five
// batches of at least batchNS each, operations of 50 ms and more are
// called three more times.
func (p probeShape) timeOp(f func()) float64 {
	t := now()
	f()
	first := float64(now() - t)
	if p.batchNS == 0 {
		return first
	}
	batches, n := 5, int(math.Ceil(p.batchNS/math.Max(first, 1)))
	if first >= 50e6 {
		batches, n = 3, 1
	}
	per := make([]float64, batches)
	for b := range per {
		t := now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(now()-t) / float64(n)
	}
	return median(per)
}

// overheadPct returns by how many percent with is slower than base. The
// two are timed in alternating batches of at least twice batchNS, so that
// drift in the machine's speed hits both alike.
func (p probeShape) overheadPct(base, with func()) float64 {
	rounds := 9
	t := now()
	base()
	with()
	n := int(math.Ceil(4 * p.batchNS / math.Max(float64(now()-t), 1)))
	if p.batchNS == 0 {
		rounds, n = 1, 1
	}
	batch := func(f func()) float64 {
		t := now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(now() - t)
	}
	var tb, tw []float64
	for r := 0; r < rounds; r++ {
		tb = append(tb, batch(base))
		tw = append(tw, batch(with))
	}
	return (median(tw)/median(tb) - 1) * 100
}

// probeDir makes a scratch directory for one probe.
func probeDir(e *env, name string) (string, error) { return scratch(e.dir, "probe-"+name+"-") }

// runProbes runs every probe and stores its metrics in m. The probes run
// with the process-global observer off, whatever the workload enabled, so
// that they measure the same thing after every workload.
func runProbes(e *env, m map[string]float64) error {
	if prev := obs.Active(); prev != nil {
		obs.Disable()
		defer obs.Enable(prev)
	}
	for _, p := range []func(*env, map[string]float64) error{
		probeCache, probeEuler, probePlatform, probeMPI, probeAMR, probeTauCore,
		probeHarness, probeCampaign, probeResults, probeStoreLease, probePerfmodel,
		probeServe, probeObs,
	} {
		if err := p(e, m); err != nil {
			return err
		}
	}
	return nil
}

func probeCache(e *env, m map[string]float64) error {
	cfg := cache.XeonL2()
	c := cache.New(cfg)
	const base = 1 << 20
	// Streams of four times the modelled capacity, so that no access
	// finds a line the stream itself loaded.
	seqN := 4 * cfg.SizeBytes / 8
	m["cache.seq.ns_per_access"] = e.probes.timeOp(func() { c.AccessRange(base, seqN, 8) }) / float64(seqN)
	// A column walk through a 256-wide block with two ghost layers: every
	// access lands on a new line.
	strideN := 4 * cfg.SizeBytes / cfg.LineBytes
	m["cache.strided.ns_per_access"] = e.probes.timeOp(func() { c.AccessRange(base, strideN, 260*8) }) / float64(strideN)
	// Re-walking a resident quarter of the cache: every access is a
	// directory lookup that hits.
	hitN := cfg.SizeBytes / 4 / cfg.LineBytes
	c.AccessRange(base, hitN, cfg.LineBytes)
	m["cache.hit.ns_per_access"] = e.probes.timeOp(func() { c.AccessRange(base, hitN, cfg.LineBytes) }) / float64(hitN)
	m["cache.checkpoint.us"] = e.probes.timeOp(func() { c.Restore(c.Checkpoint()) }) / 1e3
	return nil
}

func probeEuler(e *env, m map[string]float64) error {
	const nx, ny = 256, 128
	proc := platform.NewProc(0, platform.XeonModel(), cache.XeonL2(), 7)
	blk := euler.NewBlock(proc, nx, ny, 2)
	pr := euler.DefaultShockInterface()
	initBlock := func() {
		pr.InitBlock(blk, 0, 0, pr.Lx/nx, pr.Ly/ny)
		blk.FillBoundary(true, true, true, true)
	}
	initBlock()
	cells := float64(blk.Cells())
	m["euler.init.ns_per_cell"] = e.probes.timeOp(initBlock) / cells

	// The X kernels walk memory sequentially, the Y kernels by columns;
	// the flux kernels run on the states of their own direction.
	type fields struct{ qL, qR, fl *euler.EdgeField }
	in := map[euler.Dir]fields{}
	for _, dir := range []euler.Dir{euler.X, euler.Y} {
		in[dir] = fields{euler.NewEdgeField(proc, nx, ny, dir), euler.NewEdgeField(proc, nx, ny, dir), euler.NewEdgeField(proc, nx, ny, dir)}
	}
	x, y := in[euler.X], in[euler.Y]
	var iters int
	kernels := []struct {
		name, stream string
		run          func()
	}{
		{"states_x", "seq", func() { euler.States(proc, blk, euler.X, x.qL, x.qR) }},
		{"states_y", "strided", func() { euler.States(proc, blk, euler.Y, y.qL, y.qR) }},
		{"godunov_x", "seq", func() { iters = euler.GodunovFlux(proc, x.qL, x.qR, x.fl) }},
		{"godunov_y", "strided", func() { euler.GodunovFlux(proc, y.qL, y.qR, y.fl) }},
		{"efm_x", "seq", func() { euler.EFMFlux(proc, x.qL, x.qR, x.fl) }},
		{"efm_y", "strided", func() { euler.EFMFlux(proc, y.qL, y.qR, y.fl) }},
	}
	for _, k := range kernels {
		ns := e.probes.timeOp(k.run) / cells
		before := proc.Counters().L2DCA
		k.run()
		accesses := float64(proc.Counters().L2DCA-before) / cells
		m["euler."+k.name+".ns_per_cell"] = ns
		m["euler."+k.name+".accesses_per_cell"] = accesses
		// An estimate: the kernel's simulated accesses priced at the
		// cost of the stream shape it mostly makes.
		m["euler."+k.name+".cache_share_pct"] = accesses * m["cache."+k.stream+".ns_per_access"] / ns * 100
	}
	m["euler.godunov.newton_iters_per_face"] = float64(iters) / float64(x.fl.Len())
	return nil
}

func probePlatform(e *env, m map[string]float64) error {
	proc := platform.NewProc(0, platform.XeonModel(), cache.XeonL2(), 7)
	proc.RNG().Float64()
	m["platform.checkpoint.us"] = e.probes.timeOp(func() { proc.Restore(proc.Checkpoint()) }) / 1e3
	return nil
}

func probeMPI(e *env, m map[string]float64) error {
	c := newCommP16(e)
	c.procs = e.probes.mpiProcs
	all := append(append([]commBody(nil), bodies...), commBody{"compute", computeBody})
	for _, body := range all {
		for _, mode := range schedModes {
			cfg := c.worldConfig(mode)
			var w *mpi.World
			var runErr error
			run := func() {
				w = mpi.NewWorld(cfg)
				if err := w.Run(body.run); err != nil {
					runErr = err
				}
			}
			name := "mpi." + body.name + "." + mode.String()
			m[name+".ms"] = e.probes.timeOp(run) / 1e6
			if body.name == "compute" {
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			m[name+".allocs_per_run"] = float64(after.Mallocs - before.Mallocs)
			if runErr != nil {
				return fmt.Errorf("%s: %w", name, runErr)
			}
			if mode != mpi.OptimisticParallel {
				continue
			}
			// Speculation counts depend on thread timing; they are
			// reported as measured, not expected to repeat.
			spec := w.SpecStats()
			switch body.name {
			case "ghost":
				m["mpi.ghost.opt.pipelined_ops"] = float64(spec.PipelinedOps)
			case "coll":
				m["mpi.coll.opt.spec_coll_hits"] = float64(spec.SpecCollHits)
			case "wildcard":
				m["mpi.wildcard.opt.rollbacks"] = float64(spec.Rollbacks)
				// Speculations that were not rolled back, of those made.
				if spec.SpeculatedOps > 0 {
					m["mpi.wildcard.opt.useful_ratio"] = 1 - float64(spec.Rollbacks)/float64(spec.SpeculatedOps)
				}
			}
		}
	}
	return nil
}

func probeAMR(e *env, m map[string]float64) error {
	const rounds = 20
	levels := 0
	var runErr error
	world := func(rounds int) func() {
		return func() {
			w := mpi.NewWorld(mpi.DefaultConfig())
			err := w.Run(func(r *mpi.Rank) {
				h, err := amr.New(amr.DefaultConfig(), r)
				if err != nil {
					panic(err)
				}
				if r.Rank() == 0 {
					levels = h.NumLevels()
				}
				for i := 0; i < rounds; i++ {
					for lev := 0; lev < h.NumLevels(); lev++ {
						h.GhostExchange(lev)
					}
				}
			})
			if err != nil {
				runErr = err
			}
		}
	}
	// The exchanges' cost is a world with them minus a world without:
	// building the hierarchy is most of both.
	with, without := e.probes.timeOp(world(rounds)), e.probes.timeOp(world(0))
	if runErr != nil {
		return fmt.Errorf("amr probe: %w", runErr)
	}
	m["amr.ghost_exchange.us_per_level"] = math.Max(with-without, 0) / 1e3 / float64(rounds*levels)
	return nil
}

// stubMeasurement is a MeasurementPort that measures nothing, so the
// Mastermind probe times the Mastermind alone.
type stubMeasurement struct{ metrics []float64 }

func (stubMeasurement) StartTimer(string, string)    {}
func (stubMeasurement) StopTimer(string)             {}
func (stubMeasurement) SetGroupEnabled(string, bool) {}
func (stubMeasurement) TriggerEvent(string, float64) {}
func (stubMeasurement) MetricNames() []string {
	return []string{"WALL_CLOCK", "PAPI_FP_OPS", "PAPI_L2_DCM"}
}
func (s stubMeasurement) QueryMetrics() []float64     { return s.metrics }
func (stubMeasurement) GroupInclusive(string) float64 { return 0 }
func (stubMeasurement) Now() float64                  { return 0 }

func probeTauCore(e *env, m map[string]float64) error {
	clock := 0.0
	prof := tau.NewProfile(func() float64 { clock++; return clock })
	for _, name := range []string{"PAPI_FP_OPS", "PAPI_L2_DCA", "PAPI_L2_DCM"} {
		prof.RegisterMetric(name, func() float64 { return clock })
	}
	m["tau.start_stop.ns"] = e.probes.timeOp(func() {
		prof.Start("probe()", "PROBE")
		prof.Stop("probe()")
	})

	params := []core.Param{{Name: "Q", Value: 1000}, {Name: "mode", Value: 0}}
	// A fresh Mastermind per batch keeps the record it appends to from
	// growing without bound.
	m["core.monitor.ns_per_invocation"] = e.probes.timeOp(func() {
		mm := core.NewMastermind(stubMeasurement{metrics: make([]float64, 3)})
		for i := 0; i < 1000; i++ {
			mm.StartMonitoring("probe::compute()", params)
			mm.StopMonitoring("probe::compute()")
		}
	}) / 1000
	return nil
}

// probeSweep is the small sweep the harness and campaign probes share.
func probeSweep(seed int64) harness.SweepConfig {
	cfg := harness.DefaultSweep(harness.KernelStates)
	cfg.Sizes = harness.LogSizes(1_000, 8_000, 4)
	cfg.Reps = 1
	cfg.World.Procs = 1
	cfg.World.Seed = seed
	return cfg
}

func probeHarness(e *env, m map[string]float64) error {
	base := probeSweep(e.seed)
	scs, err := campaign.Grid{Base: base.World, Axes: []campaign.Dimension{campaign.CacheAxis(128, 1024)}}.Scenarios()
	if err != nil {
		return err
	}
	var points []harness.GridPoint
	var sweep *harness.SweepResult
	for _, sc := range scs {
		cfg := base
		cfg.World = sc.World
		if sweep, err = harness.RunSweep(cfg); err != nil {
			return err
		}
		cm, err := harness.FitModels(sweep)
		if err != nil {
			return err
		}
		points = append(points, harness.GridPoint{Scenario: sc, Kernel: cfg.Kernel, Model: cm})
	}
	var probeErr error
	m["harness.fit_models.ms"] = e.probes.timeOp(func() {
		if _, err := harness.FitModels(sweep); err != nil {
			probeErr = err
		}
	}) / 1e6
	m["harness.trend_build.ms"] = e.probes.timeOp(func() {
		reports, err := harness.BuildTrends(points, harness.TrendCacheKB)
		if err == nil {
			var buf bytes.Buffer
			if err = harness.WriteTrendCSV(&buf, reports); err == nil {
				err = harness.WriteTrendReport(&buf, reports)
			}
		}
		if err != nil {
			probeErr = err
		}
	}) / 1e6

	// The reduced case study of the repository's figure benchmarks.
	cfg := harness.DefaultCaseStudy()
	cfg.App.Mesh.BaseNx, cfg.App.Mesh.BaseNy = 48, 12
	cfg.App.Mesh.TileNx, cfg.App.Mesh.TileNy = 12, 6
	cfg.App.Driver.Steps = e.probes.caseSteps
	cfg.App.Driver.RegridInterval = 4
	cfg.World.Seed = e.seed
	for _, mode := range schedModes {
		cfg.World = cfg.World.WithScheduler(mode, 0)
		m["harness.case."+mode.String()+".ms"] = e.probes.timeOp(func() {
			if _, err := harness.RunCaseStudy(cfg); err != nil {
				probeErr = err
			}
		}) / 1e6
	}
	return probeErr
}

func probeCampaign(e *env, m map[string]float64) error {
	const nullJobs = 2000
	jobs := make([]campaign.Job, nullJobs)
	for i := range jobs {
		jobs[i] = campaign.Job{Key: fmt.Sprintf("null/%d", i), Run: func(context.Context, map[string]any) (any, error) { return nil, nil }}
	}
	var probeErr error
	m["campaign.null_job.us"] = e.probes.timeOp(func() {
		if _, err := campaign.Run(context.Background(), campaign.Config{Workers: 1}, jobs); err != nil {
			probeErr = err
		}
	}) / 1e3 / nullJobs

	grid := campaign.Grid{
		Base:         mpi.DefaultConfig(),
		Axes:         []campaign.Dimension{campaign.RankAxis(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), campaign.CacheAxis(64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)},
		Replications: 10,
	}
	m["campaign.grid_expand.us_per_scenario"] = e.probes.timeOp(func() {
		scs, err := grid.Scenarios()
		if err != nil || len(scs) != 1000 {
			probeErr = fmt.Errorf("grid expansion: %d scenarios, err %v", len(scs), err)
		}
	}) / 1e3 / 1000

	// Resume: the trend campaign over the probe sweep, run once against a
	// cold store, then timed against the warm one — every job replays.
	dir, err := probeDir(e, "resume")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := probeSweep(e.seed)
	tjobs, _, err := trendCampaign(base, campaign.Grid{
		Base: base.World, BaseSeed: e.seed,
		Axes: []campaign.Dimension{campaign.CacheAxis(128, 1024), campaign.FluxAxis(sweepFluxes...)},
	}, func() string { return dir })
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(dir, ".cache"))
	if err != nil {
		return err
	}
	resume := func(wantCached bool) {
		sink, err := openRowSinks(filepath.Join(dir, "rows"))
		if err != nil {
			probeErr = err
			return
		}
		res, err := campaign.Run(context.Background(), campaign.Config{Workers: 1, Store: st, Sink: sink}, tjobs)
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		for _, r := range res {
			if err == nil && r.Cached != wantCached {
				err = fmt.Errorf("resume probe: job %s cached=%v, want %v", r.Key, r.Cached, wantCached)
			}
		}
		if err != nil {
			probeErr = err
		}
	}
	resume(false)
	m["campaign.resume.ms"] = e.probes.timeOp(func() { resume(true) }) / 1e6
	return probeErr
}

// shardRows are the rows of one synthetic 1 152-row shard.
func shardRows(seed int64) []results.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]results.Row, 0, len(catalogQs)*96)
	for _, q := range catalogQs {
		for i := 0; i < 96; i++ {
			rows = append(rows, syntheticRow(rng, i, q, 0.05, 1.1, 1))
		}
	}
	return rows
}

func probeResults(e *env, m map[string]float64) error {
	dir, err := probeDir(e, "results")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rows := shardRows(e.seed)
	const keys, perKey = 64, 1024
	var probeErr error
	emit := func(open func() (results.Sink, error)) float64 {
		return e.probes.timeOp(func() {
			sink, err := open()
			if err != nil {
				probeErr = err
				return
			}
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("emit/%d", k)
				for i := 0; i < perKey; i++ {
					if err := sink.Emit(key, rows[i]); err != nil {
						probeErr = err
					}
				}
			}
			if err := sink.Close(); err != nil {
				probeErr = err
			}
		}) / (keys * perKey)
	}
	m["results.csv_emit.ns_per_row"] = emit(func() (results.Sink, error) { return results.NewCSVShardSink(filepath.Join(dir, "emit")) })
	m["results.bin_emit.ns_per_row"] = emit(func() (results.Sink, error) { return results.NewBinShardSink(filepath.Join(dir, "emit")) })

	sink, err := openRowSinks(filepath.Join(dir, "shard"))
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := sink.Emit("shard", row); err != nil {
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	for _, f := range []struct{ format, path string }{{"csv", sink.csv.ShardPath("shard")}, {"bin", sink.bin.ShardPath("shard")}} {
		m["results."+f.format+"_decode.us_per_shard"] = e.probes.timeOp(func() {
			got, err := results.ReadRowsFile(f.path)
			if err != nil || len(got) != len(rows) {
				probeErr = fmt.Errorf("decode %s: %d rows, err %v", f.path, len(got), err)
			}
		}) / 1e3
		fi, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		m["results."+f.format+"_bytes_per_row"] = float64(fi.Size()) / float64(len(rows))
	}
	return probeErr
}

func probeStoreLease(e *env, m map[string]float64) error {
	dir, err := probeDir(e, "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0xA5}, 64<<10)
	var probeErr error
	m["store.put.us"] = e.probes.timeOp(func() {
		if err := st.Put("probe", "hash", payload); err != nil {
			probeErr = err
		}
	}) / 1e3
	m["store.get.us"] = e.probes.timeOp(func() {
		if _, ok, err := st.Get("probe", "hash"); err != nil || !ok {
			probeErr = fmt.Errorf("store get: found %v, err %v", ok, err)
		}
	}) / 1e3
	base := probeSweep(e.seed)
	scs, err := campaign.Grid{Base: base.World, Axes: []campaign.Dimension{campaign.CacheAxis(128)}}.Scenarios()
	if err != nil {
		return err
	}
	m["store.hash.us"] = e.probes.timeOp(func() { store.Hash("probe", base, scs[0]) }) / 1e3

	mgr, err := lease.Open(st, "bench", lease.Options{})
	if err != nil {
		return err
	}
	n := 0
	m["lease.claim_release.us"] = e.probes.timeOp(func() {
		n++
		key := fmt.Sprintf("job/%d", n)
		state, err := mgr.TryClaim(key, "hash")
		if err == nil && state != campaign.ClaimRun {
			err = fmt.Errorf("lease probe: fresh key claimed %s", state)
		}
		if err == nil {
			err = mgr.Release(key, "hash", false)
		}
		if err != nil {
			probeErr = err
		}
	}) / 1e3
	if err := mgr.Close(); err != nil {
		return err
	}
	return probeErr
}

func probePerfmodel(e *env, m map[string]float64) error {
	rows := shardRows(e.seed)
	q, wall := make([]float64, len(rows)), make([]float64, len(rows))
	feats := make([][]float64, len(rows))
	for i, row := range rows {
		q[i], _ = row[1].Float()
		wall[i], _ = row[3].Float()
		dcm, _ := row[4].Float()
		feats[i] = []float64{q[i], dcm}
	}
	var probeErr error
	// What serving a cold scenario fits: group, then the AIC-best of the
	// paper's three families on the group means.
	m["perfmodel.fit_select.us"] = e.probes.timeOp(func() {
		gq, gmean := perfmodel.MeanSeries(perfmodel.GroupStats(q, wall))
		lin, err1 := perfmodel.LinFit(gq, gmean)
		p2, err2 := perfmodel.PolyFit(gq, gmean, 2)
		pl, err3 := perfmodel.PowerLawFit(gq, gmean)
		if err1 != nil || err2 != nil || err3 != nil || perfmodel.SelectBest([]perfmodel.Model{lin, p2, pl}, gq, gmean) == nil {
			probeErr = fmt.Errorf("perfmodel probe: fits failed: %v %v %v", err1, err2, err3)
		}
	}) / 1e3
	m["perfmodel.multilin.us"] = e.probes.timeOp(func() {
		if _, err := perfmodel.MultiLinFit([]string{"Q", "DCM"}, feats, wall); err != nil {
			probeErr = err
		}
	}) / 1e3
	return probeErr
}

func probeServe(e *env, m map[string]float64) error {
	load := newServeHot(e)
	load.reps, load.rowsPerQ = e.probes.catalogReps, e.probes.catalogRowsPerQ
	dir, err := probeDir(e, "serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := load.synthesizeCatalog(dir, e.seed); err != nil {
		return err
	}
	var probeErr error
	var svc *serve.Service
	open := func(opts serve.Options) func() {
		return func() {
			var err error
			if svc, err = serve.New(dir, opts); err != nil {
				probeErr = err
			}
		}
	}
	m["serve.catalog_open.ms"] = e.probes.timeOp(open(serve.Options{CacheCap: load.cacheCap})) / 1e6
	if probeErr != nil {
		return probeErr
	}
	names := svc.Catalog().Scenarios()
	predict := func(i int) string {
		return "/predict?scenario=" + names[i].Name + "&measure=mean_us&q=8000"
	}
	get := func(h http.Handler, url string) func() {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		return func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				probeErr = fmt.Errorf("serve probe: %s: status %d", url, w.Code)
			}
		}
	}
	h := svc.Handler()
	hit := get(h, predict(0))
	m["serve.predict_hit.us"] = e.probes.timeOp(hit) / 1e3
	m["serve.scenarios.us"] = e.probes.timeOp(get(h, "/scenarios?ranks=1")) / 1e3
	m["serve.trend_hit.us"] = e.probes.timeOp(get(h, "/trend?axis=cache_kb&ranks=1&rep=0")) / 1e3

	// A cache of one entry asked for two scenarios in turn: every
	// request decodes a shard and fits its models.
	open(serve.Options{CacheCap: 1})()
	h = svc.Handler()
	a, b := get(h, predict(0)), get(h, predict(1))
	m["serve.predict_miss.us"] = e.probes.timeOp(func() { a(); b() }) / 2 / 1e3

	// resultsd runs with an observer; what it costs on a resident model.
	open(serve.Options{CacheCap: load.cacheCap, Obs: obs.New(obs.Options{})})()
	m["obs.overhead_pct.serve"] = e.probes.overheadPct(hit, get(svc.Handler(), predict(0)))
	return probeErr
}

func probeObs(e *env, m map[string]float64) error {
	track := obs.New(obs.Options{}).Tracer().Track("bench", "probe")
	m["obs.span.ns"] = e.probes.timeOp(func() { track.Begin("probe", "span").End() })

	// Worlds capture the process-global observer when they are made.
	comm := newCommP16(e)
	comm.procs = e.probes.mpiProcs
	cfg := comm.worldConfig(mpi.Serial)
	observer := obs.New(obs.Options{})
	var runErr error
	ghost := func(o *obs.Observer) func() {
		return func() {
			if o != nil {
				obs.Enable(o)
				defer obs.Disable()
			}
			if err := mpi.NewWorld(cfg).Run(ghostCommBody); err != nil {
				runErr = err
			}
		}
	}
	m["obs.overhead_pct.comm"] = e.probes.overheadPct(ghost(nil), ghost(observer))
	return runErr
}
