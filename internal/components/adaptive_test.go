package components

import (
	"testing"

	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// runAdaptive assembles Godunov (primary) + EFM (fallback) behind an
// AdaptiveFlux with the given expectation model and drives n invocations
// of size q cells.
func runAdaptive(t *testing.T, expect perfmodel.Model, n, qside int) (switched bool, calls int) {
	t.Helper()
	onOneRank(t, func(f *cca.Framework, r *mpi.Rank) error {
		var adaptor *AdaptiveFlux
		f.RegisterClass("GodunovFlux", NewGodunovFlux)
		f.RegisterClass("EFMFlux", NewEFMFlux)
		f.RegisterClass("AdaptiveFlux", func() cca.Component {
			adaptor = &AdaptiveFlux{Expectation: expect, Tolerance: 1.3, Window: 2}
			return adaptor
		})
		for _, line := range [][2]string{
			{"GodunovFlux", "god0"}, {"EFMFlux", "efm0"}, {"AdaptiveFlux", "adaptive0"},
		} {
			if err := f.Instantiate(line[1], line[0]); err != nil {
				return err
			}
		}
		if err := f.Connect("adaptive0", "primary", "god0", "flux"); err != nil {
			return err
		}
		if err := f.Connect("adaptive0", "fallback", "efm0", "flux"); err != nil {
			return err
		}
		port, err := f.LookupProvides("adaptive0", "flux")
		if err != nil {
			return err
		}
		fp := port.(FluxPort)

		proc := r.Proc
		b := euler.NewBlock(proc, qside, qside, 2)
		pr := euler.DefaultShockInterface()
		pr.InitBlock(b, 0, 0, pr.Lx/float64(qside), pr.Ly/float64(qside))
		b.FillBoundary(true, true, true, true)
		qL := euler.NewEdgeField(proc, qside, qside, euler.X)
		qR := euler.NewEdgeField(proc, qside, qside, euler.X)
		fl := euler.NewEdgeField(proc, qside, qside, euler.X)
		euler.States(proc, b, euler.X, qL, qR)
		for i := 0; i < n; i++ {
			fp.Compute(qL, qR, fl)
		}
		switched = adaptor.Switched()
		calls = adaptor.Calls()
		return nil
	})
	return switched, calls
}

func TestAdaptiveFluxStaysOnPrimaryWhenExpectationHolds(t *testing.T) {
	// A generous expectation (well above reality) never triggers a switch.
	generous := perfmodel.Poly{Coeffs: []float64{0, 10}} // 10 us per cell
	switched, calls := runAdaptive(t, generous, 8, 48)
	if switched {
		t.Error("adaptor switched despite expectation holding")
	}
	if calls != 8 {
		t.Errorf("calls = %d, want 8", calls)
	}
}

func TestAdaptiveFluxSwitchesOnSustainedViolation(t *testing.T) {
	// An unrealistically tight expectation (far below Godunov's real cost)
	// is violated every call: after Window violations the adaptor must
	// switch to EFM (the paper's model-guided dynamic replacement).
	tight := perfmodel.Poly{Coeffs: []float64{0, 1e-6}}
	switched, _ := runAdaptive(t, tight, 8, 48)
	if !switched {
		t.Error("adaptor did not switch despite sustained violations")
	}
}

func TestAdaptiveFluxNoExpectationNeverSwitches(t *testing.T) {
	switched, _ := runAdaptive(t, nil, 6, 32)
	if switched {
		t.Error("adaptor without expectation must never switch")
	}
}

// recordingMesh records the order of mesh operations to verify the paper's
// recursive processing sequence. It owns no patches, so RK2's stage loops
// are empty and only the orchestration order remains.
type recordingMesh struct {
	levels   int
	ratio    int
	ghostLog []int
	restrLog []int
}

func (m *recordingMesh) Initialize() error               { return nil }
func (m *recordingMesh) NumLevels() int                  { return m.levels }
func (m *recordingMesh) Ratio() int                      { return m.ratio }
func (m *recordingMesh) LevelPatchCount(int) int         { return 1 }
func (m *recordingMesh) LocalPatches(int) []amr.PatchRef { return nil }
func (m *recordingMesh) CellSize(int) (float64, float64) { return 0.1, 0.1 }
func (m *recordingMesh) GhostUpdate(level int)           { m.ghostLog = append(m.ghostLog, level) }
func (m *recordingMesh) Regrid()                         {}
func (m *recordingMesh) LoadBalance() int                { return 0 }
func (m *recordingMesh) Restrict(lev int)                { m.restrLog = append(m.restrLog, lev) }
func (m *recordingMesh) GlobalMaxWaveSpeed() float64     { return 1 }
func (m *recordingMesh) Imbalance() float64              { return 1 }

// nopIVF satisfies InviscidFluxPort for orchestration-only tests.
type nopIVF struct{}

func (nopIVF) PatchFluxes(*euler.Block, *euler.EdgeField, *euler.EdgeField) {}

func TestRK2SubcyclingSequence(t *testing.T) {
	// The paper's processing order for 3 levels at ratio 2 is
	// L0, L1, L2, L2, L1, L2, L2 (Section 5). RK2 issues two ghost updates
	// per level visit (one per Heun stage), and a restrict after each
	// subcycle pair, so the expected logs are derivable exactly.
	mesh := &recordingMesh{levels: 3, ratio: 2}
	onOneRank(t, func(f *cca.Framework, _ *mpi.Rank) error {
		rk := &RK2{mesh: mesh, ivf: nopIVF{}}
		f.RegisterClass("RK2", func() cca.Component { return rk })
		if err := f.Instantiate("rk20", "RK2"); err != nil {
			return err
		}
		rk.Advance(0, 0.001)
		return nil
	})

	wantGhost := []int{0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2}
	if len(mesh.ghostLog) != len(wantGhost) {
		t.Fatalf("ghost updates = %v, want %v", mesh.ghostLog, wantGhost)
	}
	for i := range wantGhost {
		if mesh.ghostLog[i] != wantGhost[i] {
			t.Fatalf("ghost updates = %v, want %v", mesh.ghostLog, wantGhost)
		}
	}
	// Level visits (pairs of ghost updates) read L0,L1,L2,L2,L1,L2,L2.
	var visits []int
	for i := 0; i < len(mesh.ghostLog); i += 2 {
		visits = append(visits, mesh.ghostLog[i])
	}
	wantVisits := []int{0, 1, 2, 2, 1, 2, 2}
	for i := range wantVisits {
		if visits[i] != wantVisits[i] {
			t.Fatalf("level sequence = %v, want %v (paper Section 5)", visits, wantVisits)
		}
	}
	wantRestrict := []int{2, 2, 1}
	if len(mesh.restrLog) != len(wantRestrict) {
		t.Fatalf("restricts = %v, want %v", mesh.restrLog, wantRestrict)
	}
	for i := range wantRestrict {
		if mesh.restrLog[i] != wantRestrict[i] {
			t.Fatalf("restricts = %v, want %v", mesh.restrLog, wantRestrict)
		}
	}
}
