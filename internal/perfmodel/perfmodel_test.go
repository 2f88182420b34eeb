package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPolyPredictHorner(t *testing.T) {
	p := Poly{Coeffs: []float64{1, 2, 3}} // 1 + 2q + 3q^2
	if got := p.Predict(2); got != 17 {
		t.Errorf("Predict(2) = %g, want 17", got)
	}
	if got := p.Predict(0); got != 1 {
		t.Errorf("Predict(0) = %g, want 1", got)
	}
}

func TestPolyFitRecoversExactPolynomial(t *testing.T) {
	truth := Poly{Coeffs: []float64{-963, 0.315}}
	var x, y []float64
	for q := 1000.0; q <= 150000; q += 7000 {
		x = append(x, q)
		y = append(y, truth.Predict(q))
	}
	got, err := PolyFit(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Coeffs[0]-(-963)) > 1e-6 || math.Abs(got.Coeffs[1]-0.315) > 1e-9 {
		t.Errorf("fit = %v, want [-963 0.315]", got.Coeffs)
	}
	if r2 := R2(got, x, y); r2 < 0.999999 {
		t.Errorf("R2 = %g on exact data", r2)
	}
}

func TestPolyFitQuarticOnLargeQ(t *testing.T) {
	// The paper's Eq. 2 EFM sigma is a quartic over Q up to 1.5e5: the
	// scaled normal equations must stay stable there.
	truth := Poly{Coeffs: []float64{66.7, -0.015, 9.24e-9, -1.12e-13, 3.85e-19}}
	var x, y []float64
	for q := 2000.0; q <= 150000; q += 2000 {
		x = append(x, q)
		y = append(y, truth.Predict(q))
	}
	got, err := PolyFit(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Coeffs {
		rel := math.Abs(got.Coeffs[i]-truth.Coeffs[i]) / (math.Abs(truth.Coeffs[i]) + 1e-300)
		if rel > 1e-4 {
			t.Errorf("coeff %d: %g vs %g (rel %g)", i, got.Coeffs[i], truth.Coeffs[i], rel)
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("underdetermined fit accepted")
	}
}

func TestPowerLawFitRecoversEq1(t *testing.T) {
	// The paper's States model: T = exp(1.19 log Q - 3.68).
	truth := PowerLaw{LnA: -3.68, B: 1.19}
	var x, y []float64
	for q := 500.0; q <= 150000; q *= 1.4 {
		x = append(x, q)
		y = append(y, truth.Predict(q))
	}
	got, err := PowerLawFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.B-1.19) > 1e-9 || math.Abs(got.LnA-(-3.68)) > 1e-9 {
		t.Errorf("fit = %+v, want B=1.19 LnA=-3.68", got)
	}
	if !strings.Contains(got.String(), "log(Q)") {
		t.Errorf("String() = %q", got.String())
	}
}

func TestPowerLawFitSkipsNonPositive(t *testing.T) {
	x := []float64{-5, 0, 10, 100, 1000}
	y := []float64{3, 7, 10, 100, 1000} // y = x on the positive part
	got, err := PowerLawFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.B-1) > 1e-9 {
		t.Errorf("B = %g, want 1", got.B)
	}
	if _, err := PowerLawFit([]float64{-1, -2}, []float64{1, 1}); err == nil {
		t.Error("all-negative x accepted")
	}
}

func TestPowerLawPredictNonPositive(t *testing.T) {
	p := PowerLaw{LnA: 0, B: 1}
	if p.Predict(0) != 0 || p.Predict(-3) != 0 {
		t.Error("non-positive q should predict 0")
	}
}

func TestR2OnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := Poly{Coeffs: []float64{10, 2}}
	var x, y []float64
	for q := 0.0; q < 100; q++ {
		x = append(x, q)
		y = append(y, truth.Predict(q)+rng.NormFloat64())
	}
	fit, err := LinFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := R2(fit, x, y); r2 < 0.99 {
		t.Errorf("R2 = %g on lightly noisy line", r2)
	}
}

func TestR2DegenerateCases(t *testing.T) {
	m := Poly{Coeffs: []float64{5}}
	if got := R2(m, []float64{1, 2}, []float64{5, 5}); got != 1 {
		t.Errorf("perfect fit of constant data: R2 = %g", got)
	}
	if got := R2(m, nil, nil); got != 0 {
		t.Errorf("empty R2 = %g", got)
	}
	bad := Poly{Coeffs: []float64{7}}
	if got := R2(bad, []float64{1, 2}, []float64{5, 5}); got != 0 {
		t.Errorf("wrong constant on constant data: R2 = %g", got)
	}
}

func TestSelectBestPrefersParsimony(t *testing.T) {
	// Linear data: AIC must prefer the linear model over the quartic.
	var x, y []float64
	rng := rand.New(rand.NewSource(9))
	for q := 1.0; q <= 60; q++ {
		x = append(x, q)
		y = append(y, 3+2*q+0.01*rng.NormFloat64())
	}
	lin, _ := PolyFit(x, y, 1)
	quart, _ := PolyFit(x, y, 4)
	best := SelectBest([]Model{quart, lin}, x, y)
	if _, ok := best.(Poly); !ok || best.DOF() != 2 {
		t.Errorf("SelectBest chose DOF=%d, want the linear model", best.DOF())
	}
}

func TestCoefficients(t *testing.T) {
	t.Parallel()
	names, vals := Coefficients(PowerLaw{LnA: -3.68, B: 1.19})
	if len(names) != 2 || names[0] != "lnA" || names[1] != "B" || vals[0] != -3.68 || vals[1] != 1.19 {
		t.Errorf("power law coefficients: %v %v", names, vals)
	}
	names, vals = Coefficients(Poly{Coeffs: []float64{-963, 0.315}})
	if len(names) != 2 || names[0] != "c0" || names[1] != "c1" || vals[0] != -963 || vals[1] != 0.315 {
		t.Errorf("poly coefficients: %v %v", names, vals)
	}
	if names, vals = Coefficients(nil); names != nil || vals != nil {
		t.Errorf("nil model yielded coefficients: %v %v", names, vals)
	}
}

func TestGroupStats(t *testing.T) {
	x := []float64{100, 100, 100, 200, 200}
	y := []float64{10, 20, 30, 5, 15}
	gs := GroupStats(x, y)
	if len(gs) != 2 {
		t.Fatalf("groups = %d, want 2", len(gs))
	}
	if gs[0].Q != 100 || gs[0].N != 3 || gs[0].Mean != 20 {
		t.Errorf("group 0 = %+v", gs[0])
	}
	wantSD := math.Sqrt(200.0 / 3.0)
	if math.Abs(gs[0].StdDev-wantSD) > 1e-12 {
		t.Errorf("group 0 sd = %g, want %g", gs[0].StdDev, wantSD)
	}
	if gs[0].Min != 10 || gs[0].Max != 30 {
		t.Errorf("group 0 min/max = %g/%g", gs[0].Min, gs[0].Max)
	}
	if gs[1].Q != 200 || gs[1].Mean != 10 {
		t.Errorf("group 1 = %+v", gs[1])
	}
	q, mean := MeanSeries(gs)
	if len(q) != 2 || q[0] != 100 || mean[1] != 10 {
		t.Errorf("mean series = %v/%v", q, mean)
	}
}

// Property: PolyFit on exactly-polynomial data reproduces predictions.
func TestPropertyPolyFitInterpolates(t *testing.T) {
	f := func(c0, c1 int8, seed int64) bool {
		truth := Poly{Coeffs: []float64{float64(c0), float64(c1) / 16}}
		rng := rand.New(rand.NewSource(seed))
		var x, y []float64
		for i := 0; i < 20; i++ {
			q := 1 + rng.Float64()*1e5
			x = append(x, q)
			y = append(y, truth.Predict(q))
		}
		fit, err := LinFit(x, y)
		if err != nil {
			return false
		}
		for i := range x {
			want := truth.Predict(x[i])
			if math.Abs(fit.Predict(x[i])-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: R2 of a least-squares linear fit is within [0,1] on any data
// where y varies.
func TestPropertyR2Bounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x, y []float64
		for i := 0; i < 30; i++ {
			x = append(x, rng.Float64()*100)
			y = append(y, rng.Float64()*100)
		}
		fit, err := LinFit(x, y)
		if err != nil {
			return false
		}
		r2 := R2(fit, x, y)
		return r2 >= -1e-9 && r2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestModelStrings(t *testing.T) {
	p := Poly{Coeffs: []float64{-963, 0.315}}
	if s := p.String(); !strings.Contains(s, "-963") || !strings.Contains(s, "*Q") {
		t.Errorf("Poly.String() = %q", s)
	}
	if (Poly{}).String() != "0" {
		t.Error("empty poly should render 0")
	}
	q := Poly{Coeffs: []float64{1, 2, 3}}
	if s := q.String(); !strings.Contains(s, "Q^2") {
		t.Errorf("quadratic string = %q", s)
	}
}

func TestFitComponentForms(t *testing.T) {
	t.Parallel()
	stats := func(n int) []GroupStat {
		var x, y []float64
		for i := 1; i <= n; i++ {
			q := float64(1000 * i * i)
			x = append(x, q, q, q)
			y = append(y, 0.3*q, 0.3*q+0.01*q, 0.3*q+0.03*q)
		}
		return GroupStats(x, y)
	}
	form := func(m Model) string {
		if p, ok := m.(Poly); ok {
			return fmt.Sprintf("poly%d", len(p.Coeffs)-1)
		}
		return fmt.Sprintf("%T", m)
	}
	for _, tc := range []struct {
		kernel      string
		sizes       int
		mean, sigma string
	}{
		{"states", 6, "perfmodel.PowerLaw", "perfmodel.PowerLaw"},
		{"godunov", 6, "poly1", "poly1"},
		{"efm", 6, "poly1", "poly2"},
		{"efm", 10, "poly1", "poly4"},
		{"efm", 2, "poly1", "poly1"},
	} {
		c, err := FitComponent(stats(tc.sizes), tc.kernel)
		if err != nil {
			t.Fatalf("%s over %d sizes: %v", tc.kernel, tc.sizes, err)
		}
		if form(c.Mean) != tc.mean || form(c.Sigma) != tc.sigma {
			t.Errorf("%s over %d sizes: mean %s sigma %s, want %s and %s", tc.kernel, tc.sizes, form(c.Mean), form(c.Sigma), tc.mean, tc.sigma)
		}
	}
	// No kernel: each model is the AIC-best of a line, a quadratic and a
	// power law.
	st := stats(6)
	c, err := FitComponent(st, "")
	if err != nil {
		t.Fatal(err)
	}
	q, mean := MeanSeries(st)
	lin, _ := LinFit(q, mean)
	quad, _ := PolyFit(q, mean, 2)
	pl, _ := PowerLawFit(q, mean)
	if want := SelectBest([]Model{lin, quad, pl}, q, mean); !reflect.DeepEqual(c.Mean, want) {
		t.Errorf("AIC mean = %v, want %v", c.Mean, want)
	}
	if _, err := FitComponent(st, "roe"); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("unknown kernel: err = %v", err)
	}
	if _, err := Best(Power)([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("Best with no form that fits returned no error")
	}
}
