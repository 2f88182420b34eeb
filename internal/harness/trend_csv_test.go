package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
)

// TestWriteTrendCSVMultiKernelSingleHeader pins the long-format CSV
// contract: several kernels' reports share one file with exactly one
// header line (the encoder writes it once), matching the pre-TrendAxis
// output byte for byte.
func TestWriteTrendCSVMultiKernelSingleHeader(t *testing.T) {
	t.Parallel()
	mk := func(k Kernel) *TrendReport {
		lin, err := perfmodel.LinFit([]float64{1, 2}, []float64{3, 5})
		if err != nil {
			t.Fatal(err)
		}
		return &TrendReport{
			Kernel: k, Axis: TrendCacheKB,
			CoeffNames: []string{"c0"},
			Points:     []TrendPoint{{X: 128, N: 1, Coeffs: []float64{3}}, {X: 512, N: 1, Coeffs: []float64{5}}},
			Fits:       []TrendFit{{Coeff: "c0", Model: lin}},
		}
	}
	var sb strings.Builder
	if err := WriteTrendCSV(&sb, []*TrendReport{mk(KernelStates), mk(KernelEFM)}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "kernel,cache_kb,n,coeff,value,trend_fit"); n != 1 {
		t.Errorf("%d header lines, want 1:\n%s", n, out)
	}
	if !strings.HasPrefix(out, "kernel,cache_kb,n,coeff,value,trend_fit\n") {
		t.Errorf("missing leading header:\n%s", out)
	}
	if !strings.Contains(out, "\nefm,128,1,c0,") {
		t.Errorf("second kernel's rows missing:\n%s", out)
	}
}

// TestTrendReportsConstantCoefficient: a coefficient whose points agree to
// a relative 1e-9 along the axis fits as their mean and is reported as a
// constant, with no R2; one that moves is fitted as before.
func TestTrendReportsConstantCoefficient(t *testing.T) {
	t.Parallel()
	point := func(kb int, lnA, b float64) GridPoint {
		return GridPoint{
			Scenario: campaign.Scenario{Key: fmt.Sprintf("c%dkB", kb),
				Coords: []campaign.Coord{{Axis: campaign.AxisCache, Key: fmt.Sprintf("c%dkB", kb), Value: kb}}},
			Kernel: KernelStates,
			Model:  &ComponentModel{Kernel: KernelStates, Component: perfmodel.Component{Mean: perfmodel.PowerLaw{LnA: lnA, B: b}}},
		}
	}
	const b = 1.2965308981359878
	reports, err := BuildTrends([]GridPoint{
		point(128, -4.0, b), point(256, -4.5, b*(1+1e-12)), point(512, -5.0, b),
	}, TrendCacheKB)
	if err != nil {
		t.Fatal(err)
	}
	fits := reports[0].Fits
	if fits[0].Constant {
		t.Errorf("lnA moves along the axis but fits as a constant: %+v", fits[0])
	}
	if !fits[1].Constant || fits[1].R2 != 0 || math.Abs(fits[1].Model.Predict(1e6)-b) > 1e-12 {
		t.Errorf("B fit = %+v, want the constant %g", fits[1], b)
	}
	var txt, csv strings.Builder
	if err := WriteTrendReport(&txt, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "  B   (C) = 1.29653 (constant)\n") || !strings.Contains(txt.String(), "  lnA (C) = ") {
		t.Errorf("report:\n%s", txt.String())
	}
	if err := WriteTrendCSV(&csv, reports); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("states,256,1,B,%g,%g\n", b*(1+1e-12), fits[1].Model.Predict(256)); !strings.Contains(csv.String(), want) {
		t.Errorf("CSV lacks %q:\n%s", want, csv.String())
	}
}
