package components

import (
	"math"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/tau"
)

// smallAppConfig is a fast 3-rank case study for tests.
func smallAppConfig() AppConfig {
	cfg := DefaultAppConfig()
	cfg.Mesh.BaseNx, cfg.Mesh.BaseNy = 32, 16
	cfg.Mesh.TileNx, cfg.Mesh.TileNy = 16, 8
	cfg.Driver.Steps = 4
	cfg.Driver.RegridInterval = 2
	return cfg
}

// onOneRank runs setup on the framework of the only rank of a one-rank
// world: RunSCMD is the only way to get a framework, and every component
// runs on a rank. An error or a panic in setup fails the test.
func onOneRank(t *testing.T, setup func(f *cca.Framework, r *mpi.Rank) error) {
	t.Helper()
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 1
	if err := cca.RunSCMD(mpi.NewWorld(wcfg), setup); err != nil {
		t.Fatal(err)
	}
}

// runApp assembles and runs the case study on P ranks, returning the
// per-rank apps and the world.
func runApp(t *testing.T, cfg AppConfig, procs int) ([]*App, *mpi.World) {
	t.Helper()
	apps, w, _ := runAppWithImage(t, cfg, procs)
	return apps, w
}

// runAppWithImage additionally composes the final density image (a
// collective, so it must happen inside the SCMD body).
func runAppWithImage(t *testing.T, cfg AppConfig, procs int) ([]*App, *mpi.World, []float64) {
	t.Helper()
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = procs
	w := mpi.NewWorld(wcfg)
	apps := make([]*App, procs)
	var img []float64
	err := cca.RunSCMD(w, func(f *cca.Framework, r *mpi.Rank) error {
		app, err := BuildApp(f, cfg)
		if err != nil {
			return err
		}
		apps[r.Rank()] = app
		if err := app.Go(); err != nil {
			return err
		}
		// Image composition is post-processing: keep its collectives out
		// of the application profile via TAU's group control.
		r.Prof.SetGroupEnabled("MPI", false)
		_, _, im := app.Mesh.Hierarchy().DensityImage()
		r.Prof.SetGroupEnabled("MPI", true)
		if r.Rank() == 0 {
			img = im
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return apps, w, img
}

func TestAssemblyScriptShapes(t *testing.T) {
	mon := AssemblyScript(DefaultAppConfig())
	for _, want := range []string{"sc_proxy", "g_proxy", "icc_proxy", "mastermind0", "tau0", "GodunovFlux"} {
		if !strings.Contains(mon, want) {
			t.Errorf("monitored script missing %q", want)
		}
	}
	cfg := DefaultAppConfig()
	cfg.Flux = EFM
	efm := AssemblyScript(cfg)
	if !strings.Contains(efm, "efm_proxy") || !strings.Contains(efm, "EFMFlux") {
		t.Error("EFM script missing efm_proxy/EFMFlux")
	}
	cfg.Monitor = false
	bare := AssemblyScript(cfg)
	for _, banned := range []string{"proxy", "mastermind", "tau0"} {
		if strings.Contains(bare, banned) {
			t.Errorf("unmonitored script contains %q", banned)
		}
	}
}

func TestCaseStudyRunsAndRecords(t *testing.T) {
	cfg := smallAppConfig()
	apps, w := runApp(t, cfg, 3)

	for rank, app := range apps {
		if app.Driver.StepsTaken != cfg.Driver.Steps {
			t.Errorf("rank %d took %d steps, want %d", rank, app.Driver.StepsTaken, cfg.Driver.Steps)
		}
		if app.Driver.SimTime <= 0 {
			t.Errorf("rank %d sim time %g", rank, app.Driver.SimTime)
		}
		recs := app.Records()
		if len(recs) == 0 {
			t.Fatalf("rank %d produced no monitoring records", rank)
		}
		names := map[string]bool{}
		for _, r := range recs {
			names[r.Method] = true
		}
		for _, want := range []string{
			"sc_proxy::compute()", "g_proxy::compute()",
			"icc_proxy::ghostUpdate()", "icc_proxy::restrict()", "icc_proxy::prolong()",
		} {
			if !names[want] {
				t.Errorf("rank %d missing record %q (have %v)", rank, want, names)
			}
		}
	}

	// The profile must contain the Fig. 3 headline rows.
	prof := w.Profiles()[0]
	for _, name := range []string{
		"int main(int, char **)", "MPI_Waitsome()", "MPI_Init()",
		"MPI_Allreduce()", "MPI_Finalize()", "sc_proxy::compute()",
	} {
		tm := prof.Lookup(name)
		if tm == nil || tm.Calls == 0 {
			t.Errorf("profile missing timer %q", name)
		}
	}
	// main must be the top inclusive timer.
	main := prof.Lookup("int main(int, char **)")
	for _, tm := range timers(t, prof) {
		if tm.InclUS > main.InclUS+1e-9 {
			t.Errorf("timer %s (%g us) exceeds main (%g us)", tm.Name, tm.InclUS, main.InclUS)
		}
	}
}

func TestStatesRecordsCarryQAndMode(t *testing.T) {
	apps, _ := runApp(t, smallAppConfig(), 3)
	rec := apps[0].Core().Record("sc_proxy::compute()")
	if rec == nil || rec.Len() == 0 {
		t.Fatal("no sc_proxy records")
	}
	q, mode := rec.Param("Q"), rec.Param("mode")
	if len(q) != rec.Len() || len(mode) != rec.Len() {
		t.Fatalf("Q and mode columns hold %d and %d of %d invocations", len(q), len(mode), rec.Len())
	}
	seenX, seenY, wall := false, false, rec.WallUS()
	for i := range rec.Len() {
		if q[i] <= 0 {
			t.Fatalf("invocation %d without positive Q: %g", i, q[i])
		}
		if mode[i] == 0 {
			seenX = true
		} else {
			seenY = true
		}
		if wall[i] <= 0 {
			t.Errorf("non-positive wall time %g", wall[i])
		}
		if rec.MPIUS[i] != 0 {
			t.Errorf("States invoked MPI (%g us); it must be compute-only", rec.MPIUS[i])
		}
	}
	if !seenX || !seenY {
		t.Error("both sequential and strided modes should be recorded (X/Y alternation)")
	}
}

func TestGhostUpdateRecordsHaveMPITimeAndLevels(t *testing.T) {
	apps, _ := runApp(t, smallAppConfig(), 3)
	rec := apps[0].Core().Record("icc_proxy::ghostUpdate()")
	if rec == nil || rec.Len() == 0 {
		t.Fatal("no ghostUpdate records")
	}
	level := rec.Param("level")
	if len(level) != rec.Len() {
		t.Fatal("ghostUpdate record without level parameter")
	}
	levels := map[float64]bool{}
	anyMPI := false
	for i, lvl := range level {
		levels[lvl] = true
		if rec.MPIUS[i] > 0 {
			anyMPI = true
		}
		if rec.MPIUS[i] > rec.WallUS()[i]+1e-9 {
			t.Errorf("MPI time %g exceeds wall %g", rec.MPIUS[i], rec.WallUS()[i])
		}
	}
	if len(levels) < 2 {
		t.Errorf("ghost updates seen only at levels %v", levels)
	}
	if !anyMPI {
		t.Error("no ghost update spent any MPI time on 3 ranks")
	}
}

func TestCallTraceCapturesWiring(t *testing.T) {
	apps, _ := runApp(t, smallAppConfig(), 3)
	edges := core.Trace(apps[0].Records())
	if len(edges) < 3 {
		t.Fatalf("call trace too small: %v", edges)
	}
	found := map[string]bool{}
	for e := range edges {
		found[e.Caller+"->"+e.Callee+"."+e.Method] = true
	}
	for _, want := range []string{"sc_proxy->states.compute", "g_proxy->flux.compute", "icc_proxy->mesh.ghostUpdate"} {
		if !found[want] {
			t.Errorf("call trace missing %s (have %v)", want, found)
		}
	}
}

// timers copies a finished profile's timers.
func timers(t *testing.T, p *tau.Profile) []tau.Timer {
	t.Helper()
	tab, err := p.Timers()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestWaitsomeDominatesMPI(t *testing.T) {
	// The Fig. 3 shape: MPI_Waitsome is the largest MPI row.
	_, w := runApp(t, smallAppConfig(), 3)
	prof := w.Profiles()[0]
	ws := prof.Lookup("MPI_Waitsome()")
	if ws == nil {
		t.Fatal("no MPI_Waitsome timer")
	}
	for _, tm := range timers(t, prof) {
		if tm.Group != "MPI" || tm.Name == "MPI_Waitsome()" ||
			tm.Name == "MPI_Init()" || tm.Name == "MPI_Finalize()" {
			continue
		}
		if tm.InclUS > ws.InclUS {
			t.Errorf("%s (%g us) exceeds MPI_Waitsome (%g us)", tm.Name, tm.InclUS, ws.InclUS)
		}
	}
}

func TestEFMAssemblyRunsAndIsCheaper(t *testing.T) {
	cfgG := smallAppConfig()
	appsG, _ := runApp(t, cfgG, 3)
	cfgE := smallAppConfig()
	cfgE.Flux = EFM
	appsE, _ := runApp(t, cfgE, 3)

	recG := appsG[0].Core().Record("g_proxy::compute()")
	recE := appsE[0].Core().Record("efm_proxy::compute()")
	if recG == nil || recE == nil {
		t.Fatal("missing flux records")
	}
	meanUS := func(rec *core.Record) float64 {
		var s float64
		for _, v := range rec.WallUS() {
			s += v
		}
		return s / float64(rec.Len())
	}
	g, e := meanUS(recG), meanUS(recE)
	if g <= e {
		t.Errorf("Godunov mean %g us should exceed EFM mean %g us", g, e)
	}
}

func TestUnmonitoredAssemblyRuns(t *testing.T) {
	cfg := smallAppConfig()
	cfg.Monitor = false
	apps, w := runApp(t, cfg, 3)
	if apps[0].Records() != nil {
		t.Error("unmonitored run produced records")
	}
	if w.Profiles()[0].Lookup("sc_proxy::compute()") != nil {
		t.Error("unmonitored run has proxy timers")
	}
	if apps[0].Driver.StepsTaken != cfg.Driver.Steps {
		t.Error("unmonitored run did not complete")
	}
}

func TestMonitoredMatchesUnmonitoredPhysics(t *testing.T) {
	// Proxies must not perturb the numerics: the density images of
	// monitored and unmonitored runs are identical.
	cfgM := smallAppConfig()
	_, _, imgM := runAppWithImage(t, cfgM, 3)
	cfgU := smallAppConfig()
	cfgU.Monitor = false
	_, _, imgU := runAppWithImage(t, cfgU, 3)
	if len(imgM) != len(imgU) {
		t.Fatalf("image sizes differ: %d vs %d", len(imgM), len(imgU))
	}
	for k := range imgM {
		if imgM[k] != imgU[k] {
			t.Fatalf("monitored and unmonitored fields differ at %d: %g vs %g", k, imgM[k], imgU[k])
		}
	}
}

func TestSimulationStateStaysPhysical(t *testing.T) {
	apps, _ := runApp(t, smallAppConfig(), 3)
	h := apps[1].Mesh.Hierarchy()
	for lev := 0; lev < h.NumLevels(); lev++ {
		for _, p := range h.LocalPatches(lev) {
			for j := 0; j < p.Meta.Rect.Ny(); j++ {
				for i := 0; i < p.Meta.Rect.Nx(); i++ {
					w := p.Block.PrimAt(i, j)
					if w.Rho <= 0 || w.P <= 0 || math.IsNaN(w.Rho) {
						t.Fatalf("non-physical state at level %d (%d,%d): %+v", lev, i, j, w)
					}
				}
			}
		}
	}
}

func TestDensityImageShowsShockProgress(t *testing.T) {
	cfg := smallAppConfig()
	cfg.Driver.Steps = 8
	_, _, img := runAppWithImage(t, cfg, 3)
	nx := cfg.Mesh.BaseNx * 4
	ny := cfg.Mesh.BaseNy * 4
	// Post-shock density (>= ~1.8) must extend past the initial shock
	// position after 8 coarse steps.
	shockX0 := int(cfg.Mesh.Problem.ShockX / cfg.Mesh.Problem.Lx * float64(nx))
	maxHigh := 0
	row := ny / 2
	for i := 0; i < nx; i++ {
		if img[row*nx+i] > 1.5 && img[row*nx+i] < 2.5 {
			maxHigh = i
		}
	}
	if maxHigh <= shockX0 {
		t.Errorf("compressed region ends at %d, initial shock at %d: no propagation", maxHigh, shockX0)
	}
}

func TestDOTExportContainsProxiesAndMonitorEdges(t *testing.T) {
	// Assemble without running: the script wires the components, and the
	// DOT export reads the wiring.
	cfg := smallAppConfig()
	var dot string
	onOneRank(t, func(f *cca.Framework, _ *mpi.Rank) error {
		RegisterClasses(f, cfg, &App{Config: cfg, Framework: f})
		if err := f.RunScript(AssemblyScript(cfg)); err != nil {
			return err
		}
		var sb strings.Builder
		if err := f.WriteDOT(&sb, "assembly"); err != nil {
			return err
		}
		dot = sb.String()
		return nil
	})
	for _, want := range []string{"sc_proxy", "icc_proxy", "mastermind0", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestLoadBalanceHappensOnce(t *testing.T) {
	cfg := smallAppConfig()
	cfg.Driver.Steps = 8
	cfg.Driver.RegridInterval = 2
	cfg.Driver.LoadBalanceThreshold = 1.01 // trigger at the first chance
	apps, _ := runApp(t, cfg, 3)
	rec := apps[0].Core().Record("icc_proxy::loadBalance()")
	if rec == nil || rec.Len() == 0 {
		t.Skip("no load balance triggered on this configuration")
	}
	if rec.Len() != 1 {
		t.Errorf("load balance ran %d times, want 1 (MaxLoadBalances)", rec.Len())
	}
}

func TestDeterministicAcrossIdenticalRuns(t *testing.T) {
	cfg := smallAppConfig()
	_, w1 := runApp(t, cfg, 3)
	_, w2 := runApp(t, cfg, 3)
	for rank := 0; rank < 3; rank++ {
		a := w1.Procs()[rank].Now()
		b := w2.Procs()[rank].Now()
		if a != b {
			t.Errorf("rank %d final clock differs: %.6f vs %.6f", rank, a, b)
		}
	}
}

// Direct component unit tests, each on a one-rank framework.

func TestStatesComponentDelegates(t *testing.T) {
	onOneRank(t, func(f *cca.Framework, r *mpi.Rank) error {
		f.RegisterClass("States", NewStates)
		if err := f.Instantiate("s", "States"); err != nil {
			return err
		}
		p, err := f.LookupProvides("s", "states")
		if err != nil {
			return err
		}
		sp := p.(StatesPort)
		b := euler.NewBlock(r.Proc, 8, 8, 2)
		w := euler.Prim{Rho: 1, U: 0, V: 0, P: 1, Y: 0}
		for j := -2; j < 10; j++ {
			for i := -2; i < 10; i++ {
				b.SetPrim(i, j, w)
			}
		}
		qL := euler.NewEdgeField(r.Proc, 8, 8, euler.X)
		qR := euler.NewEdgeField(r.Proc, 8, 8, euler.X)
		sp.Compute(b, euler.X, qL, qR)
		want := euler.ConsFromPrim(w)
		if qL.Q[euler.IRho][0] != want[euler.IRho] {
			t.Errorf("States component did not delegate: %g", qL.Q[euler.IRho][0])
		}
		return nil
	})
}

func TestAMRMeshBeforeInitializePanics(t *testing.T) {
	onOneRank(t, func(f *cca.Framework, _ *mpi.Rank) error {
		f.RegisterClass("AMRMesh", func() cca.Component { return &AMRMesh{cfg: amr.DefaultConfig()} })
		if err := f.Instantiate("m", "AMRMesh"); err != nil {
			return err
		}
		p, _ := f.LookupProvides("m", "mesh")
		defer func() {
			if recover() == nil {
				t.Error("mesh use before Initialize did not panic")
			}
		}()
		p.(MeshPort).NumLevels()
		return nil
	})
}
