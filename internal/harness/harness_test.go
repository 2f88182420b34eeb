package harness

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/assembly"
	"repro/internal/campaign"
	"repro/internal/euler"
	"repro/internal/perfmodel"
)

// fastCaseStudy shrinks the default run for test speed.
func fastCaseStudy() CaseStudyConfig {
	cfg := DefaultCaseStudy()
	cfg.App.Mesh.BaseNx, cfg.App.Mesh.BaseNy = 48, 12
	cfg.App.Mesh.TileNx, cfg.App.Mesh.TileNy = 12, 6
	cfg.App.Driver.Steps = 6
	cfg.App.Driver.RegridInterval = 3
	return cfg
}

// fastSweep shrinks the default sweep for test speed.
func fastSweep(k Kernel) SweepConfig {
	cfg := DefaultSweep(k)
	cfg.Sizes = LogSizes(2_000, 120_000, 5)
	cfg.Reps = 2
	cfg.World.Procs = 2
	return cfg
}

// shared memoizes the fast case study plus the three fast sweeps, produced
// once per test binary by a single parallel campaign, and the sweeps' fits.
// Every run is deterministic for its config, so sharing changes nothing but
// wall time.
var shared struct {
	once    sync.Once
	caseRes *CaseStudyResult
	sweeps  map[Kernel]*SweepResult
	models  map[Kernel]*ComponentModel
	err     error
}

func sharedFixtures(t *testing.T) (*CaseStudyResult, map[Kernel]*SweepResult, map[Kernel]*ComponentModel) {
	t.Helper()
	shared.once.Do(func() {
		kernels := []Kernel{KernelStates, KernelGodunov, KernelEFM}
		jobs := []campaign.Job{CaseStudyJob("case", fastCaseStudy())}
		for _, k := range kernels {
			jobs = append(jobs, SweepJob("sweep/"+string(k), fastSweep(k)))
		}
		res, err := campaign.Run(context.Background(), campaign.Config{}, jobs)
		if err != nil {
			shared.err = err
			return
		}
		shared.caseRes = res[0].Value.(*CaseStudyResult)
		shared.sweeps = map[Kernel]*SweepResult{}
		shared.models = map[Kernel]*ComponentModel{}
		for i, k := range kernels {
			shared.sweeps[k] = res[1+i].Value.(*SweepResult)
			if shared.models[k], shared.err = FitModels(shared.sweeps[k]); shared.err != nil {
				return
			}
		}
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.caseRes, shared.sweeps, shared.models
}

func TestRunCaseStudyProducesAllArtifacts(t *testing.T) {
	t.Parallel()
	res, _, _ := sharedFixtures(t)
	if len(res.Profiles) != 3 {
		t.Errorf("profiles = %d, want 3", len(res.Profiles))
	}
	if res.ImageNx == 0 || len(res.Image) != res.ImageNx*res.ImageNy {
		t.Error("no density image")
	}
	if !strings.Contains(res.AssemblyDOT, "sc_proxy") {
		t.Error("assembly DOT missing proxies")
	}
	if len(res.Edges) == 0 {
		t.Error("no call trace")
	}
	if res.StepsTaken != 6 {
		t.Errorf("steps = %d", res.StepsTaken)
	}
	var sb strings.Builder
	if err := res.WriteProfile(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FUNCTION SUMMARY (mean):", "MPI_Waitsome()", "int main(int, char **)"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("profile missing %q", want)
		}
	}
}

func TestFig3ShapeWaitsomeShare(t *testing.T) {
	t.Parallel()
	// The headline Fig. 3 claim: about a quarter of the time in
	// MPI_Waitsome. Accept a generous band around the paper's 24.3%.
	res, err := RunCaseStudy(DefaultCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	ws := res.TimerShare("MPI_Waitsome()")
	if ws < 0.12 || ws > 0.45 {
		t.Errorf("MPI_Waitsome share = %.1f%%, want ~25%%", ws*100)
	}
	// Godunov must outweigh States (paper: 12.0%% vs 10.9%%).
	if g, s := res.TimerShare("g_proxy::compute()"), res.TimerShare("sc_proxy::compute()"); g <= s {
		t.Errorf("g_proxy share %.1f%% should exceed sc_proxy %.1f%%", g*100, s*100)
	}
	if res.TimerShare("MPI_Allreduce()") > 0.05 {
		t.Errorf("MPI_Allreduce share %.1f%% should be small", res.TimerShare("MPI_Allreduce()")*100)
	}
}

// TestProxyOverheadIsSmall is the paper's overhead claim as an assertion:
// interposing the proxies and the Mastermind lengthens the application's
// virtual run (main's inclusive time) by well under 1% (measured 0.010%).
func TestProxyOverheadIsSmall(t *testing.T) {
	t.Parallel()
	mainUS := func(res *CaseStudyResult) float64 {
		for _, row := range res.MeanSummary() {
			if row.Name == "int main(int, char **)" {
				return row.InclusiveUS
			}
		}
		t.Fatal("no main timer in the profile")
		return 0
	}
	monitored, _, _ := sharedFixtures(t)
	cfg := fastCaseStudy()
	cfg.App.Monitor = false
	bare, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := mainUS(monitored), mainUS(bare)
	pct := (with - without) / without * 100
	t.Logf("proxy+Mastermind overhead = %.4f%% of main", pct)
	if pct < 0 || pct >= 1 {
		t.Errorf("proxy+Mastermind overhead = %.4f%% of main (%.0f us monitored, %.0f us bare), want in [0, 1)", pct, with, without)
	}
}

func TestGhostCommSeriesFig9(t *testing.T) {
	t.Parallel()
	res, _, _ := sharedFixtures(t)
	pts := res.GhostCommSeries()
	if len(pts) == 0 {
		t.Fatal("no ghost-update comm samples")
	}
	levels := map[int]bool{}
	ranks := map[int]bool{}
	for _, p := range pts {
		levels[p.Level] = true
		ranks[p.Rank] = true
		if p.MPIUS < 0 || p.MPIUS > p.WallUS+1e-9 {
			t.Fatalf("bad sample %+v", p)
		}
	}
	if len(levels) < 2 || len(ranks) != 3 {
		t.Errorf("levels %v ranks %v", levels, ranks)
	}
	var sb strings.Builder
	if err := res.WriteGhostCommCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "rank,level,invocation,mpi_us,wall_us") {
		t.Error("CSV header wrong")
	}
}

func TestWritePGM(t *testing.T) {
	t.Parallel()
	res, _, _ := sharedFixtures(t)
	var sb strings.Builder
	if err := res.WritePGM(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "P2\n") {
		t.Error("not a PGM")
	}
	if !strings.Contains(out, "255") {
		t.Error("missing maxval")
	}
	empty := &CaseStudyResult{}
	if err := empty.WritePGM(&sb); err == nil {
		t.Error("empty image accepted")
	}
}

func TestLogSizes(t *testing.T) {
	t.Parallel()
	s := LogSizes(1000, 150000, 12)
	if len(s) != 12 || s[0] != 1000 {
		t.Fatalf("sizes = %v", s)
	}
	if s[11] < 149000 || s[11] > 151000 {
		t.Errorf("last size = %d, want ~150000", s[11])
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("sizes not increasing")
		}
	}
}

func TestLogSizesEdgeCases(t *testing.T) {
	t.Parallel()
	// n < 2 collapses to the lower bound alone.
	for _, n := range []int{1, 0, -3} {
		if got := LogSizes(5, 10, n); len(got) != 1 || got[0] != 5 {
			t.Errorf("LogSizes(5, 10, %d) = %v, want [5]", n, got)
		}
	}
	// A degenerate range (lo == hi) yields n copies of that size, not NaNs
	// or zeros — the ratio degenerates to 1.
	if got := LogSizes(7, 7, 4); len(got) != 4 {
		t.Fatalf("LogSizes(7, 7, 4) = %v", got)
	} else {
		for _, v := range got {
			if v != 7 {
				t.Fatalf("LogSizes(7, 7, 4) = %v, want all 7s", got)
			}
		}
	}
}

// modeSeries returns the sweep's samples of one access mode.
func modeSeries(s *SweepResult, mode euler.Dir) (q, wall []float64) {
	for _, p := range s.Points {
		if p.Mode == mode {
			q = append(q, float64(p.Q))
			wall = append(wall, p.WallUS)
		}
	}
	return q, wall
}

func TestRunSweepStates(t *testing.T) {
	t.Parallel()
	_, sweeps, _ := sharedFixtures(t)
	sw := sweeps[KernelStates]
	if len(sw.Points) == 0 {
		t.Fatal("no sweep points")
	}
	// Both modes sampled at every size.
	qx, _ := modeSeries(sw, euler.X)
	qy, _ := modeSeries(sw, euler.Y)
	if len(qx) == 0 || len(qx) != len(qy) {
		t.Errorf("mode sample counts %d/%d", len(qx), len(qy))
	}
	// Fig. 5 shape: ratio near 1 for the smallest sizes, rising for the
	// largest.
	ratios := sw.StridedRatios()
	if len(ratios) == 0 {
		t.Fatal("no ratios")
	}
	smallAvg, largeAvg := 0.0, 0.0
	ns, nl := 0, 0
	for _, r := range ratios {
		if r.Q < 6000 {
			smallAvg += r.Ratio
			ns++
		}
		if r.Q > 60000 {
			largeAvg += r.Ratio
			nl++
		}
	}
	if ns == 0 || nl == 0 {
		t.Fatal("ratio size coverage missing")
	}
	smallAvg /= float64(ns)
	largeAvg /= float64(nl)
	if smallAvg > 1.6 {
		t.Errorf("small-Q ratio = %.2f, want ~1 (cache resident)", smallAvg)
	}
	if largeAvg < 1.8 {
		t.Errorf("large-Q ratio = %.2f, want substantially above 1", largeAvg)
	}
	if largeAvg <= smallAvg {
		t.Error("ratio must grow with Q (Fig. 5)")
	}
}

// TestModeAveragingCostsFidelity quantifies what the paper's mode-averaged
// States model gives up: one power law over both access modes must
// predict worse (higher RMSE) than a power law per mode, the gap Fig. 4
// shows and Section 6's cache-aware model exists to close.
func TestModeAveragingCostsFidelity(t *testing.T) {
	t.Parallel()
	_, sweeps, models := sharedFixtures(t)
	sw := sweeps[KernelStates]
	sumSq := func(m perfmodel.Model, q, wall []float64) float64 {
		var ss float64
		for i := range wall {
			d := wall[i] - m.Predict(q[i])
			ss += d * d
		}
		return ss
	}
	qAll, wallAll := sw.AllSeries()
	averaged := sumSq(models[KernelStates].Mean, qAll, wallAll)
	var perMode float64
	for _, mode := range []euler.Dir{euler.X, euler.Y} {
		q, wall := modeSeries(sw, mode)
		fit, err := perfmodel.PowerLawFit(q, wall)
		if err != nil {
			t.Fatal(err)
		}
		perMode += sumSq(fit, q, wall)
	}
	// Same sample count on both sides, so the RMSE ratio is the root of
	// the ratio of the summed squares.
	ratio := math.Sqrt(averaged / perMode)
	t.Logf("mode-averaged / per-mode RMSE = %.2f", ratio)
	if ratio <= 1 {
		t.Errorf("mode-averaged / per-mode RMSE = %.3f, want > 1", ratio)
	}
}

func TestSweepCSVWriters(t *testing.T) {
	t.Parallel()
	_, sweeps, _ := sharedFixtures(t)
	sw := sweeps[KernelStates]
	var sb strings.Builder
	if err := sw.WriteScatterCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "rank,q,mode,wall_us") {
		t.Error("scatter header wrong")
	}
	sb.Reset()
	if err := sw.WriteRatiosCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "strided_over_sequential") {
		t.Error("ratio header wrong")
	}
}

func TestRunSweepRejectsEmpty(t *testing.T) {
	t.Parallel()
	if _, err := RunSweep(SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestFitModelsShapes(t *testing.T) {
	t.Parallel()
	_, _, models := sharedFixtures(t)

	// States: power-law mean with superlinear exponent.
	cm := models[KernelStates]
	pl, ok := cm.Mean.(perfmodel.PowerLaw)
	if !ok {
		t.Fatalf("States mean model is %T, want PowerLaw", cm.Mean)
	}
	if pl.B < 0.9 || pl.B > 1.6 {
		t.Errorf("States exponent = %.3f, want ~1.2 (paper: 1.19)", pl.B)
	}
	if cm.MeanR2 < 0.5 {
		t.Errorf("States mean R2 = %.3f, too poor", cm.MeanR2)
	}

	// Godunov: linear mean, sigma growing with Q.
	cmG := models[KernelGodunov]
	lg, ok := cmG.Mean.(perfmodel.Poly)
	if !ok || len(lg.Coeffs) != 2 {
		t.Fatalf("Godunov mean model = %v", cmG.Mean)
	}
	if lg.Coeffs[1] <= 0 {
		t.Error("Godunov slope must be positive")
	}
	sg := cmG.Sigma.(perfmodel.Poly)
	if sg.Coeffs[1] <= 0 {
		t.Error("Godunov sigma must grow with Q (paper Fig. 7)")
	}

	// EFM: linear mean cheaper than Godunov at large Q.
	cmE := models[KernelEFM]
	const bigQ = 100_000
	if cmE.Mean.Predict(bigQ) >= cmG.Mean.Predict(bigQ) {
		t.Errorf("EFM (%.0f us) must be cheaper than Godunov (%.0f us) at Q=%d",
			cmE.Mean.Predict(bigQ), cmG.Mean.Predict(bigQ), bigQ)
	}
	// EFM's variability is far below Godunov's (paper Fig. 8): compare the
	// measured per-group sigmas directly (fitted sigma models extrapolate
	// poorly on the sparse test sweep).
	var sigE, sigG float64
	for _, g := range cmE.Stats {
		sigE += g.StdDev
	}
	for _, g := range cmG.Stats {
		sigG += g.StdDev
	}
	if sigE >= sigG {
		t.Errorf("total EFM sigma (%.0f) must be below Godunov's (%.0f)", sigE, sigG)
	}

	// Report writers.
	var sb strings.Builder
	if err := WriteModelReport(&sb, cmG); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"g_proxy::compute()", "paper", "measured", "R2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("model report missing %q", want)
		}
	}
	sb.Reset()
	if err := WriteMeanSigmaCSV(&sb, cmG); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "q,n,mean_us,sigma_us") {
		t.Error("mean/sigma CSV header wrong")
	}
}

// TestKernelPaperClaims pins, with tolerances, the paper-level claims the
// three measured kernels carry, so that a change to a kernel or to how its
// work is charged cannot degrade them behind a regenerated golden: Fig. 5's
// strided/sequential ratio, the Fig. 7 vs Fig. 8 variability ordering, and
// the Figs. 6-8 fit families with a floor under each fit's R2.
func TestKernelPaperClaims(t *testing.T) {
	t.Parallel()
	_, sweeps, models := sharedFixtures(t)
	sizes := fastSweep(KernelStates).Sizes
	// A size's four aspect shapes differ by a few cells in Q; a sample
	// belongs to the size its Q is nearest to.
	atSize := func(q float64, size int) bool { return math.Abs(q/float64(size)-1) < 0.05 }
	smallest, largest := sizes[0], sizes[len(sizes)-1]

	// Fig. 5: strided never beats sequential once the States working set
	// (15 planes of 8-byte elements per cell) exceeds the modelled cache,
	// and the penalty is larger at the largest arrays than at the smallest.
	capacityCells := sweeps[KernelStates].Config.World.Cache.SizeBytes / (15 * 8)
	var small, large, ns, nl float64
	for _, r := range sweeps[KernelStates].StridedRatios() {
		if r.Q > capacityCells && r.Ratio < 1 {
			t.Errorf("Fig. 5: strided/sequential = %.3f at Q=%d (rank %d), above the cache's %d cells", r.Ratio, r.Q, r.Rank, capacityCells)
		}
		if atSize(float64(r.Q), smallest) {
			small, ns = small+r.Ratio, ns+1
		}
		if atSize(float64(r.Q), largest) {
			large, nl = large+r.Ratio, nl+1
		}
	}
	if ns == 0 || nl == 0 || large/nl <= small/ns {
		t.Errorf("Fig. 5: mean strided/sequential %.2f at the largest Q (n=%v), %.2f at the smallest (n=%v): want it larger", large/nl, nl, small/ns, ns)
	}

	// Figs. 7/8: at the largest arrays EFMFlux's timings scatter less than
	// GodunovFlux's, whose Newton iteration counts depend on the data.
	sigmaAt := func(k Kernel) (sum float64) {
		for _, g := range models[k].Stats {
			if atSize(g.Q, largest) {
				sum += g.StdDev
			}
		}
		return sum
	}
	if e, g := sigmaAt(KernelEFM), sigmaAt(KernelGodunov); e <= 0 || e >= g {
		t.Errorf("Figs. 7/8: sigma at the largest Q: EFM %.0f us, Godunov %.0f us; want 0 < EFM < Godunov", e, g)
	}

	// Figs. 6-8: a power law for States, straight lines for the fluxes.
	// The floors sit 0.05 under what the test sweep fits today (0.85, 0.95,
	// 0.97).
	for _, want := range []struct {
		kernel  Kernel
		fig     string
		isModel func(perfmodel.Model) bool
		r2      float64
	}{
		{KernelStates, "Fig. 6", func(m perfmodel.Model) bool { _, ok := m.(perfmodel.PowerLaw); return ok }, 0.80},
		{KernelGodunov, "Fig. 7", func(m perfmodel.Model) bool { p, ok := m.(perfmodel.Poly); return ok && len(p.Coeffs) == 2 }, 0.90},
		{KernelEFM, "Fig. 8", func(m perfmodel.Model) bool { p, ok := m.(perfmodel.Poly); return ok && len(p.Coeffs) == 2 }, 0.92},
	} {
		cm := models[want.kernel]
		if !want.isModel(cm.Mean) {
			t.Errorf("%s: %s mean model is %T (%v)", want.fig, want.kernel, cm.Mean, cm.Mean)
		}
		if cm.MeanR2 < want.r2 {
			t.Errorf("%s: %s mean fit R2 = %.3f, want at least %.2f", want.fig, want.kernel, cm.MeanR2, want.r2)
		}
	}
}

func TestBuildDualAndOptimize(t *testing.T) {
	t.Parallel()
	res, _, models := sharedFixtures(t)
	dual := BuildDual(res, models)
	if dual.Vertex("sc_proxy") == nil || dual.Vertex("g_proxy") == nil {
		t.Fatal("dual missing kernel vertices")
	}
	if dual.Vertex("icc_proxy") == nil || dual.Vertex("icc_proxy").Comm == nil {
		t.Error("mesh vertex missing comm model")
	}
	if cost := dual.Cost(); cost <= 0 || math.IsNaN(cost) {
		t.Errorf("composite cost = %g", cost)
	}
	var sb strings.Builder
	if err := dual.WriteDOT(&sb, "dual"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "g_proxy") {
		t.Error("dual DOT missing vertices")
	}

	// Optimizer: at large workload EFM wins on cost; the QoS floor brings
	// Godunov back (the paper's trade).
	trial := BuildDual(res, models)
	for _, name := range []string{"g_proxy", "sc_proxy"} {
		if v := trial.Vertex(name); v != nil {
			nv := *v
			nv.Q = 100_000
			trial.AddVertex(nv)
		}
	}
	opt := &assembly.Optimizer{Dual: trial,
		Slots: []assembly.Slot{FluxSlot("g_proxy", models[KernelGodunov], models[KernelEFM])}}
	best, _, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if best.Choice["g_proxy"] != "EFMFlux" {
		t.Errorf("large-Q optimum = %v, want EFMFlux", best.Choice)
	}
	opt.MinQoS = 0.9
	bestQoS, _, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if bestQoS.Choice["g_proxy"] != "GodunovFlux" {
		t.Errorf("QoS-floored optimum = %v, want GodunovFlux", bestQoS.Choice)
	}
}

func TestCaseStudyDeterminism(t *testing.T) {
	t.Parallel()
	// The shared fixture ran the same config through the campaign engine;
	// a fresh serial run must reproduce it exactly.
	r1, _, _ := sharedFixtures(t)
	r2, err := RunCaseStudy(fastCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := r1.MeanSummary(), r2.MeanSummary()
	if len(s1) != len(s2) {
		t.Fatalf("summary row counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].InclusiveUS != s2[i].InclusiveUS {
			t.Errorf("row %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}
