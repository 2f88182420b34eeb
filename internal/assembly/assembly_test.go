package assembly

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// lin builds a quick linear model.
func lin(c0, c1 float64) perfmodel.Model { return perfmodel.Poly{Coeffs: []float64{c0, c1}} }

// caseDual builds a small application dual resembling Fig. 10:
// driver -> rk2 -> {mesh, flux, states}.
func caseDual() *Dual {
	d := NewDual()
	d.AddVertex(Vertex{Name: "driver", Compute: lin(10, 0), Q: 1})
	d.AddVertex(Vertex{Name: "rk2", Compute: lin(50, 0), Q: 1})
	d.AddVertex(Vertex{Name: "mesh", Compute: lin(100, 0), Comm: lin(2000, 0), Q: 1})
	d.AddVertex(Vertex{Name: "states", Compute: lin(0, 0.05), Q: 10000})
	d.AddVertex(Vertex{Name: "flux", Compute: lin(-963, 0.315), Q: 10000})
	d.AddEdge("driver", "rk2", "advance", 16)
	d.AddEdge("rk2", "mesh", "ghostUpdate", 64)
	d.AddEdge("rk2", "states", "compute", 128)
	d.AddEdge("rk2", "flux", "compute", 128)
	return d
}

func TestCostSumsContributions(t *testing.T) {
	d := caseDual()
	want := 1*10.0 + 16*50 + 64*2100 + 128*(0.05*10000) + 128*(-963+0.315*10000)
	if got := d.Cost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %g, want %g", got, want)
	}
	contrib := d.Contribution()
	if contrib["driver"] != 10 {
		t.Errorf("driver contribution = %g (no incoming edge => 1 call)", contrib["driver"])
	}
	if contrib["mesh"] != 64*2100 {
		t.Errorf("mesh contribution = %g", contrib["mesh"])
	}
}

func TestVertexPredictPerCall(t *testing.T) {
	v := Vertex{Name: "x", Compute: lin(5, 1), Comm: lin(100, 0), Q: 10}
	if got := v.PredictPerCall(); got != 115 {
		t.Errorf("PredictPerCall = %g, want 115", got)
	}
	bare := Vertex{Name: "y", Q: 10}
	if got := bare.PredictPerCall(); got != 0 {
		t.Errorf("model-less vertex cost = %g", got)
	}
}

func TestFromTraceDeterministic(t *testing.T) {
	edges := map[core.CallEdge]int{
		{Caller: "rk20", Callee: "icc_proxy", Method: "ghostUpdate"}:     64,
		{Caller: "inviscidflux0", Callee: "sc_proxy", Method: "compute"}: 128,
		{Caller: "inviscidflux0", Callee: "g_proxy", Method: "compute"}:  128,
	}
	d1 := FromTrace(edges)
	d2 := FromTrace(edges)
	if len(d1.Edges()) != 3 {
		t.Fatalf("edges = %d", len(d1.Edges()))
	}
	for i, e := range d1.Edges() {
		if d2.Edges()[i] != e {
			t.Fatal("FromTrace not deterministic")
		}
	}
	if d1.Vertex("icc_proxy") == nil {
		t.Error("callee vertex not created")
	}
}

func TestWriteDOT(t *testing.T) {
	var sb strings.Builder
	if err := caseDual().WriteDOT(&sb, "dual"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", `"rk2" -> "mesh"`, "ghostUpdate x64", "us/call"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func fluxSlot() Slot {
	return Slot{
		Vertex: "flux",
		Impls: []Implementation{
			{Name: "GodunovFlux", Compute: lin(-963, 0.315), QoS: 1.0},
			{Name: "EFMFlux", Compute: lin(-8.13, 0.16), QoS: 0.7},
		},
	}
}

func TestOptimizerPicksCheaperImplementation(t *testing.T) {
	opt := &Optimizer{Dual: caseDual(), Slots: []Slot{fluxSlot()}}
	best, ranking, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if best.Choice["flux"] != "EFMFlux" {
		t.Errorf("best = %v, want EFMFlux (cheaper at Q=10000)", best.Choice)
	}
	if len(ranking) != 2 {
		t.Fatalf("ranking size = %d, want 2", len(ranking))
	}
	if ranking[0].Cost >= ranking[1].Cost {
		t.Error("ranking not sorted by cost")
	}
	// The gap equals 128 * (Godunov - EFM at Q=1e4).
	wantGap := 128 * ((-963 + 0.315*10000) - (-8.13 + 0.16*10000))
	if got := ranking[1].Cost - ranking[0].Cost; math.Abs(got-wantGap) > 1e-6 {
		t.Errorf("cost gap = %g, want %g", got, wantGap)
	}
}

func TestOptimizerQoSConstraintFlipsChoice(t *testing.T) {
	// Requiring the scientists' accuracy floor excludes EFM: the paper's
	// Quality-of-Service discussion in action.
	opt := &Optimizer{Dual: caseDual(), Slots: []Slot{fluxSlot()}, MinQoS: 0.9}
	best, ranking, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if best.Choice["flux"] != "GodunovFlux" {
		t.Errorf("QoS-constrained best = %v, want GodunovFlux", best.Choice)
	}
	if len(ranking) != 1 {
		t.Errorf("ranking = %d assemblies, want 1 admissible", len(ranking))
	}
}

func TestOptimizerInfeasibleQoS(t *testing.T) {
	opt := &Optimizer{Dual: caseDual(), Slots: []Slot{fluxSlot()}, MinQoS: 2.0}
	if _, _, err := opt.Optimize(); err == nil {
		t.Fatal("impossible QoS floor accepted")
	}
}

func TestOptimizerMultipleSlotsEnumeratesProduct(t *testing.T) {
	d := caseDual()
	statesSlot := Slot{
		Vertex: "states",
		Impls: []Implementation{
			{Name: "StatesV1", Compute: lin(0, 0.05), QoS: 1},
			{Name: "StatesV2", Compute: lin(0, 0.02), QoS: 1},
			{Name: "StatesV3", Compute: lin(0, 0.9), QoS: 1},
		},
	}
	opt := &Optimizer{Dual: d, Slots: []Slot{fluxSlot(), statesSlot}}
	best, ranking, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 6 { // 2 x 3 product
		t.Fatalf("ranking size = %d, want 6", len(ranking))
	}
	if best.Choice["flux"] != "EFMFlux" || best.Choice["states"] != "StatesV2" {
		t.Errorf("best = %v", best.Choice)
	}
}

func TestOptimizerNoSlots(t *testing.T) {
	d := caseDual()
	opt := &Optimizer{Dual: d}
	best, _, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost != d.Cost() {
		t.Errorf("no-slot cost = %g, want dual cost %g", best.Cost, d.Cost())
	}
}

func TestOptimizerEmptySlotErrors(t *testing.T) {
	opt := &Optimizer{Dual: caseDual(), Slots: []Slot{{Vertex: "flux"}}}
	if _, _, err := opt.Optimize(); err == nil {
		t.Fatal("empty slot accepted")
	}
}

func TestEvaluateUnknownImplementationPanics(t *testing.T) {
	opt := &Optimizer{Dual: caseDual(), Slots: []Slot{fluxSlot()}}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown implementation did not panic")
		}
	}()
	opt.Evaluate(Choice{"flux": "NoSuchFlux"})
}
