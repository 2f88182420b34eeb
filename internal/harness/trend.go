package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
	"repro/internal/results"
)

// This file is the cross-scenario analysis the paper's Section 6 sketches:
// "Ideally, the coefficients should be parameterized by processor speed
// and a cache model." A streaming grid run produces one fitted model per
// scenario; the trend report averages the model coefficients per value of
// a swept machine axis — cache size or CPU clock scale — and fits each
// coefficient against that axis, showing the functional form staying put
// while the coefficients move, and giving a first-order predictor for
// machines the sweep never ran on.

// TrendAxis is one sweepable machine axis: how a command names it, how a
// grid sweeps it, and how a trend report reads it back off a scenario.
type TrendAxis struct {
	// Name is the stable axis identifier: the CSV x-column header and the
	// -axis flag value ("cache_kb", "cpu_clock").
	Name string
	// Col is the x column label of the text report ("C_kB").
	Col string
	// Var is the variable letter trend-fit formulas are rendered with
	// (the underlying perfmodel models print their parameter as Q).
	Var string
	// Desc describes the axis in the text report heading.
	Desc string
	// Value extracts a scenario's numeric x coordinate; ok is false when
	// the scenario's grid does not carry the axis.
	Value func(campaign.Scenario) (float64, bool)
	// Defaults is the value list the commands sweep when -trendvalues is
	// empty.
	Defaults []float64
	// Dimension builds the grid axis sweeping the given values.
	Dimension func(values []float64) (campaign.Dimension, error)
}

// trendAxes is the axis table: every machine axis a command can sweep and
// fit trends against is one row here.
var trendAxes = []TrendAxis{
	{
		Name: "cache_kb", Col: "C_kB", Var: "C", Desc: "cache size (C in kB)",
		Value:    func(sc campaign.Scenario) (float64, bool) { return sc.Num(campaign.AxisCache) },
		Defaults: []float64{128, 256, 512, 1024},
		Dimension: func(values []float64) (campaign.Dimension, error) {
			kbs := make([]int, len(values))
			for i, v := range values {
				kbs[i] = int(v)
				if float64(kbs[i]) != v {
					return campaign.Dimension{}, fmt.Errorf("-trendvalues %g: a cache_kb value is a whole number of kB", v)
				}
			}
			return campaign.CacheAxis(kbs...), nil
		},
	},
	{
		Name: "cpu_clock", Col: "K", Var: "K", Desc: "CPU clock scale (K x calibrated)",
		Value:    func(sc campaign.Scenario) (float64, bool) { return sc.Num(campaign.AxisCPU) },
		Defaults: []float64{0.5, 1, 2, 4},
		Dimension: func(values []float64) (campaign.Dimension, error) {
			return campaign.CPUClockAxis(values...), nil
		},
	},
}

// The table's rows by name, for callers that fit trends over a grid they
// built themselves. TrendCacheKB is the original Section 6 study.
var (
	TrendCacheKB  = trendAxes[0]
	TrendCPUClock = trendAxes[1]
)

// TrendAxisNamed resolves a -axis flag value to its table row; the empty
// name selects the first row. Anything else is rejected here, before a
// command has run or written anything.
func TrendAxisNamed(name string) (TrendAxis, error) {
	if name == "" {
		return trendAxes[0], nil
	}
	names := make([]string, len(trendAxes))
	for i, a := range trendAxes {
		if a.Name == name {
			return a, nil
		}
		names[i] = a.Name
	}
	return TrendAxis{}, fmt.Errorf("unknown trend axis %q (want %s)", name, strings.Join(names, " or "))
}

// TrendPoint is one axis value's averaged model coefficients.
type TrendPoint struct {
	// X is the trend axis coordinate (cache kB, clock scale, ...).
	X float64
	// N counts the grid points (replications and other collapsed
	// dimensions) averaged into the coefficients.
	N int
	// Coeffs holds the mean coefficient values, aligned with the report's
	// CoeffNames.
	Coeffs []float64
}

// TrendFit is one coefficient's fitted trend against the axis.
type TrendFit struct {
	// Coeff names the coefficient ("lnA", "B", "c0", "c1", ...).
	Coeff string
	// Model predicts the coefficient from the axis value. It is the
	// AIC-best of a linear and (when the values admit one) a power-law
	// candidate, or the points' mean when Constant.
	Model perfmodel.Model
	// R2 is the fit's coefficient of determination over the trend points;
	// zero when Constant, where it would measure only rounding noise.
	R2 float64
	// Constant reports that the coefficient does not move along the axis:
	// its points agree to a relative 1e-9.
	Constant bool
}

// TrendReport is one kernel's coefficient-vs-axis analysis.
type TrendReport struct {
	// Kernel is the measured component.
	Kernel Kernel
	// Axis is the swept dimension the coefficients are fitted against.
	Axis TrendAxis
	// CoeffNames labels the fitted model's coefficients.
	CoeffNames []string
	// Points holds the per-axis-value averaged coefficients, ascending.
	Points []TrendPoint
	// Fits holds one trend fit per coefficient, aligned with CoeffNames.
	Fits []TrendFit
}

// BuildTrends groups grid points by kernel and fits every mean-model
// coefficient against the chosen axis. Each kernel needs at least two
// distinct axis values; replications (and any other collapsed dimensions)
// are averaged per axis value first, mirroring the paper's group-then-fit
// regression style.
func BuildTrends(points []GridPoint, axis TrendAxis) ([]*TrendReport, error) {
	byKernel := map[Kernel][]GridPoint{}
	var order []Kernel
	for _, p := range points {
		if _, seen := byKernel[p.Kernel]; !seen {
			order = append(order, p.Kernel)
		}
		byKernel[p.Kernel] = append(byKernel[p.Kernel], p)
	}
	reports := make([]*TrendReport, 0, len(order))
	for _, k := range order {
		r, err := buildTrend(k, axis, byKernel[k])
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// trendForm fits one coefficient against the axis: the AIC-best of a line
// and (when the values admit one) a power law.
var trendForm = perfmodel.Best(perfmodel.Linear, perfmodel.Power)

// buildTrend is BuildTrends for one kernel's points.
func buildTrend(kernel Kernel, axis TrendAxis, points []GridPoint) (*TrendReport, error) {
	report := &TrendReport{Kernel: kernel, Axis: axis}
	type acc struct {
		n    int
		sums []float64
	}
	byX := map[float64]*acc{}
	for _, p := range points {
		if p.Model == nil {
			return nil, fmt.Errorf("harness: trend: grid point %q has no model", p.Scenario.Key)
		}
		xv, ok := axis.Value(p.Scenario)
		if !ok {
			return nil, fmt.Errorf("harness: trend: scenario %q has no numeric %s coordinate", p.Scenario.Key, axis.Name)
		}
		names, values := perfmodel.Coefficients(p.Model.Mean)
		if len(names) == 0 {
			return nil, fmt.Errorf("harness: trend: %s model %T has no coefficients", kernel, p.Model.Mean)
		}
		if report.CoeffNames == nil {
			report.CoeffNames = names
		}
		if len(values) != len(report.CoeffNames) {
			return nil, fmt.Errorf("harness: trend: %s grid mixes model forms (%d vs %d coefficients)",
				kernel, len(values), len(report.CoeffNames))
		}
		a := byX[xv]
		if a == nil {
			a = &acc{sums: make([]float64, len(values))}
			byX[xv] = a
		}
		a.n++
		for i, v := range values {
			a.sums[i] += v
		}
	}
	if len(byX) < 2 {
		return nil, fmt.Errorf("harness: trend: %s grid has %d distinct %s value(s), need >= 2", kernel, len(byX), axis.Name)
	}
	xs := make([]float64, 0, len(byX))
	for xv := range byX {
		xs = append(xs, xv)
	}
	sort.Float64s(xs)
	for _, xv := range xs {
		a := byX[xv]
		coeffs := make([]float64, len(a.sums))
		for i, s := range a.sums {
			coeffs[i] = s / float64(a.n)
		}
		report.Points = append(report.Points, TrendPoint{X: xv, N: a.n, Coeffs: coeffs})
	}

	x := make([]float64, len(report.Points))
	for i, p := range report.Points {
		x[i] = p.X
	}
	for ci, name := range report.CoeffNames {
		y := make([]float64, len(report.Points))
		for i, p := range report.Points {
			y[i] = p.Coeffs[ci]
		}
		fit := TrendFit{Coeff: name}
		if mean, ok := constantSeries(y); ok {
			fit.Model, fit.Constant = perfmodel.Poly{Coeffs: []float64{mean}}, true
		} else {
			best, err := trendForm(x, y)
			if err != nil {
				return nil, fmt.Errorf("harness: trend: %s coefficient %s: %w", kernel, name, err)
			}
			fit.Model, fit.R2 = best, perfmodel.R2(best, x, y)
		}
		report.Fits = append(report.Fits, fit)
	}
	return report, nil
}

// constantSeries returns the mean of ys and whether they agree to a
// relative 1e-9, so that a coefficient the axis does not move fits as a
// constant, not as a curve through its rounding noise.
func constantSeries(ys []float64) (float64, bool) {
	lo, hi, sum := ys[0], ys[0], 0.0
	for _, v := range ys {
		lo, hi, sum = min(lo, v), max(hi, v), sum+v
	}
	return sum / float64(len(ys)), hi-lo <= 1e-9*max(math.Abs(lo), math.Abs(hi))
}

// trendModelString renders a trend fit with the axis variable letter — the
// underlying perfmodel models print their parameter as Q.
func trendModelString(m perfmodel.Model, axis TrendAxis) string {
	return strings.ReplaceAll(m.String(), "Q", axis.Var)
}

// WriteTrendCSV writes the reports as one long-format CSV: one row per
// (kernel, axis value, coefficient) with the averaged value and the trend
// fit's prediction. The x column is named after the axis ("cache_kb").
func WriteTrendCSV(w io.Writer, reports []*TrendReport) error {
	enc := results.NewCSVEncoder(w)
	for _, r := range reports {
		if err := enc.Header("kernel", r.Axis.Name, "n", "coeff", "value", "trend_fit"); err != nil {
			return err
		}
		for _, p := range r.Points {
			for ci, name := range r.CoeffNames {
				if err := enc.Encode(results.Row{
					results.F("kernel", string(r.Kernel)),
					results.F(r.Axis.Name, p.X),
					results.F("n", p.N),
					results.F("coeff", name),
					results.F("value", p.Coeffs[ci]),
					results.F("trend_fit", r.Fits[ci].Model.Predict(p.X)),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteTrendReport prints the human-readable trend analysis: per kernel,
// the fitted coefficient-vs-axis models and the averaged points they came
// from.
func WriteTrendReport(w io.Writer, reports []*TrendReport) error {
	for ri, r := range reports {
		if ri > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "trend for %s: mean-model coefficients vs %s\n",
			r.Kernel.RecordName(), r.Axis.Desc); err != nil {
			return err
		}
		for _, f := range r.Fits {
			if f.Constant {
				fmt.Fprintf(w, "  %-4s(%s) = %.6g (constant)\n", f.Coeff, r.Axis.Var, f.Model.Predict(0))
				continue
			}
			fmt.Fprintf(w, "  %-4s(%s) = %-40s [R2=%.4f]\n", f.Coeff, r.Axis.Var, trendModelString(f.Model, r.Axis), f.R2)
		}
		fmt.Fprintf(w, "  %8s %4s", r.Axis.Col, "n")
		for _, name := range r.CoeffNames {
			fmt.Fprintf(w, " %14s", name)
		}
		fmt.Fprintln(w)
		for _, p := range r.Points {
			fmt.Fprintf(w, "  %8g %4d", p.X, p.N)
			for _, c := range p.Coeffs {
				fmt.Fprintf(w, " %14.6g", c)
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
