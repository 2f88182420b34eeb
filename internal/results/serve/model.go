package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/perfmodel"
	"repro/internal/results"
)

// The row fields a scenario shard must carry to be modeled: the sweep
// harness emits one row per kernel invocation with the array size, the
// measured wall time and (when the platform counters were on) the L2
// data-cache-miss delta.
const (
	fieldQ    = "q"
	fieldWall = "wall_us"
	fieldDCM  = "l2_dcm"
)

// Measure names one predictable quantity. The two backends support
// overlapping but distinct subsets — Measures() on a model lists its
// own.
type Measure string

// The measures the built-in backends answer.
const (
	// MeasureMeanUS is the expected wall time of one invocation at Q,
	// microseconds.
	MeasureMeanUS Measure = "mean_us"
	// MeasureSigmaUS is the fitted standard deviation of the wall time
	// at Q, microseconds (the paper's error-bar model).
	MeasureSigmaUS Measure = "sigma_us"
	// MeasureThroughput is invocations per second: back-to-back
	// completion rate for the fitted backend, carried load for the
	// queueing backend.
	MeasureThroughput Measure = "throughput_per_s"
	// MeasureResponseUS is the open-system response time at arrival
	// rate lambda, microseconds (queue backend only).
	MeasureResponseUS Measure = "response_us"
	// MeasureUtilization is the offered load rho = lambda * service
	// demand (queue backend only).
	MeasureUtilization Measure = "utilization"
)

// Point is a prediction coordinate: the array size Q, the open-system
// arrival rate Lambda (requests per second, used by the queue measures)
// and optionally a cache-miss count for the multivariate fitted model.
type Point struct {
	Q      float64
	Lambda float64
	DCM    float64
	HasDCM bool
}

// Coefficient is one named fitted parameter, grouped by the submodel it
// belongs to ("mean", "sigma", "multi", "service_us").
type Coefficient struct {
	Model string  `json:"model"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// PerformanceModel answers predictions for one scenario. Implementations
// are immutable once built — the cache shares one instance across
// concurrent queries.
type PerformanceModel interface {
	// Measures lists what this backend can predict, in a fixed order.
	Measures() []Measure
	// Predict evaluates a measure at a point. Unsupported measures and
	// out-of-domain points (e.g. a saturated queue) return errors.
	Predict(m Measure, at Point) (float64, error)
	// Coefficients returns every fitted parameter, deterministically
	// ordered — the trend endpoint's raw material.
	Coefficients() []Coefficient
	// Describe renders the model in the paper's equation style.
	Describe() string
}

// backendNames lists the built-in backends in serving order; "fitted" is
// the default when a query names none.
var backendNames = [...]string{"fitted", "queue"}

// backendIndex returns a backend's position in backendNames.
func backendIndex(name string) (int, bool) {
	i := slices.Index(backendNames[:], name)
	return i, i >= 0
}

// buildBackends fits every backend for one scenario's projected columns
// (fieldQ, fieldWall, fieldDCM, in that order). A backend that cannot be
// built from them (too few distinct Q values, say) is reported, not
// silently dropped: the scenario is unservable. The models are in
// backendNames order. The multilinear fit's feature vectors live in s.
func buildBackends(sc *Scenario, cols *results.Columns, s *loadScratch) (models [len(backendNames)]PerformanceModel, err error) {
	q, wall, dcm, hasDCM := modelSeries(cols)
	if len(q) == 0 {
		return models, fmt.Errorf("serve: scenario %s has no rows with %q and %q fields", sc.Name, fieldQ, fieldWall)
	}
	stats := perfmodel.GroupStats(q, wall)
	if len(stats) < 2 {
		return models, fmt.Errorf("serve: scenario %s has %d distinct %s value(s); need at least 2 to fit", sc.Name, len(stats), fieldQ)
	}
	var feats [][]float64
	if hasDCM {
		feats = s.features(q, dcm)
	}
	f, err := buildFitted(sc.kernel, wall, feats, stats)
	if err != nil {
		return models, fmt.Errorf("serve: scenario %s: %w", sc.Name, err)
	}
	return [...]PerformanceModel{f, buildQueue(stats)}, nil
}

// modelSeries extracts the modeling series from the projected columns.
// Rows missing either Q or the wall time are skipped; the cache-miss
// series is only kept when every used row carries it (a partial counter
// column cannot feed one regression). The series are the columns
// themselves, compacted in place over the skipped rows.
func modelSeries(cols *results.Columns) (q, wall, dcm []float64, hasDCM bool) {
	q, wall, dcm = cols.Values[0][:0], cols.Values[1][:0], cols.Values[2][:0]
	hasDCM = true
	for i := 0; i < cols.Rows; i++ {
		if !cols.Present[0][i] || !cols.Present[1][i] {
			continue
		}
		hasDCM = hasDCM && cols.Present[2][i]
		q = append(q, cols.Values[0][i])
		wall = append(wall, cols.Values[1][i])
		dcm = append(dcm, cols.Values[2][i])
	}
	if !hasDCM {
		dcm = nil
	}
	return q, wall, dcm, hasDCM
}

// fitted is the regression backend: the scenario's component model
// (perfmodel.FitComponent: the paper's form when the scenario names its
// kernel, else the AIC-best), plus a multilinear model over (Q, DCM) when
// the cache-miss telemetry is present in every row.
type fitted struct {
	perfmodel.Component
	multi   *perfmodel.MultiLin
	multiR2 float64
	n       int
}

// buildFitted fits the component model to stats and, when feats holds a
// (Q, DCM) vector per row of wall, the multilinear model to those rows.
// Neither model keeps wall or feats.
func buildFitted(kernel string, wall []float64, feats [][]float64, stats []perfmodel.GroupStat) (*fitted, error) {
	c, err := perfmodel.FitComponent(stats, kernel)
	if err != nil {
		return nil, err
	}
	f := &fitted{Component: c, n: len(wall)}
	if len(feats) >= 3 {
		if ml, err := perfmodel.MultiLinFit([]string{"Q", "DCM"}, feats, wall); err == nil {
			f.multi = &ml
			f.multiR2 = perfmodel.R2Multi(ml, feats, wall)
		}
	}
	return f, nil
}

func (f *fitted) Measures() []Measure {
	return []Measure{MeasureMeanUS, MeasureSigmaUS, MeasureThroughput}
}

func (f *fitted) Predict(m Measure, at Point) (float64, error) {
	switch m {
	case MeasureMeanUS:
		if at.HasDCM && f.multi != nil {
			return f.multi.PredictVec([]float64{at.Q, at.DCM}), nil
		}
		return f.Mean.Predict(at.Q), nil
	case MeasureSigmaUS:
		return f.Sigma.Predict(at.Q), nil
	case MeasureThroughput:
		mean, err := f.Predict(MeasureMeanUS, at)
		if err != nil {
			return 0, err
		}
		if mean <= 0 {
			return 0, fmt.Errorf("serve: fitted mean %g us at Q=%g is not positive; no throughput", mean, at.Q)
		}
		return 1e6 / mean, nil
	}
	return 0, fmt.Errorf("serve: measure %q not supported by the fitted backend (supports mean_us, sigma_us, throughput_per_s)", m)
}

func (f *fitted) Coefficients() []Coefficient {
	var out []Coefficient
	names, values := perfmodel.Coefficients(f.Mean)
	for i := range names {
		out = append(out, Coefficient{Model: "mean", Name: names[i], Value: values[i]})
	}
	names, values = perfmodel.Coefficients(f.Sigma)
	for i := range names {
		out = append(out, Coefficient{Model: "sigma", Name: names[i], Value: values[i]})
	}
	if f.multi != nil {
		out = append(out, Coefficient{Model: "multi", Name: "c0", Value: f.multi.Coeffs[0]})
		for i, n := range f.multi.Names {
			out = append(out, Coefficient{Model: "multi", Name: n, Value: f.multi.Coeffs[i+1]})
		}
	}
	return out
}

func (f *fitted) Describe() string {
	s := fmt.Sprintf("mean_us = %s (R2=%.4g); sigma_us = %s (R2=%.4g)",
		f.Mean.String(), f.MeanR2, f.Sigma.String(), f.SigmaR2)
	if f.multi != nil {
		s += fmt.Sprintf("; multi: wall_us = %s (R2=%.4g)", f.multi.String(), f.multiR2)
	}
	return s + fmt.Sprintf("; fit over %d rows, Q in [%g, %g]", f.n, f.Stats[0].Q, f.Stats[len(f.Stats)-1].Q)
}

// queue is the closed-form backend: the scenario's grouped mean wall
// time is the service demand s(Q) of an M/M/1 server (interpolated
// piecewise-linearly between measured Q values, clamped outside them),
// and the open-system measures follow from rho = lambda * s(Q):
// response R = s / (1 - rho), utilization rho, throughput lambda.
type queue struct {
	knots []perfmodel.GroupStat
}

func buildQueue(stats []perfmodel.GroupStat) *queue {
	return &queue{knots: stats}
}

// service interpolates the service demand at Q, microseconds.
func (qm *queue) service(q float64) float64 {
	k := qm.knots
	if q <= k[0].Q {
		return k[0].Mean
	}
	if q >= k[len(k)-1].Q {
		return k[len(k)-1].Mean
	}
	i := sort.Search(len(k), func(i int) bool { return k[i].Q >= q })
	lo, hi := k[i-1], k[i]
	t := (q - lo.Q) / (hi.Q - lo.Q)
	return lo.Mean + t*(hi.Mean-lo.Mean)
}

func (qm *queue) Measures() []Measure {
	return []Measure{MeasureMeanUS, MeasureResponseUS, MeasureUtilization, MeasureThroughput}
}

func (qm *queue) Predict(m Measure, at Point) (float64, error) {
	s := qm.service(at.Q)
	switch m {
	case MeasureMeanUS:
		return s, nil
	case MeasureUtilization:
		if at.Lambda <= 0 {
			return 0, fmt.Errorf("serve: measure %q needs lambda > 0 (arrivals per second)", m)
		}
		return at.Lambda * s / 1e6, nil
	case MeasureResponseUS:
		rho, err := qm.Predict(MeasureUtilization, at)
		if err != nil {
			return 0, err
		}
		if rho >= 1 {
			return 0, fmt.Errorf("serve: queue saturated at Q=%g, lambda=%g: utilization %.4g >= 1", at.Q, at.Lambda, rho)
		}
		return s / (1 - rho), nil
	case MeasureThroughput:
		if at.Lambda <= 0 {
			if s <= 0 {
				return 0, fmt.Errorf("serve: service demand %g us at Q=%g is not positive; no throughput", s, at.Q)
			}
			return 1e6 / s, nil // capacity: the saturation rate
		}
		rho := at.Lambda * s / 1e6
		if rho >= 1 {
			return 0, fmt.Errorf("serve: queue saturated at Q=%g, lambda=%g: utilization %.4g >= 1", at.Q, at.Lambda, rho)
		}
		return at.Lambda, nil // stable open system: out = in
	}
	return 0, fmt.Errorf("serve: measure %q not supported by the queue backend (supports mean_us, response_us, utilization, throughput_per_s)", m)
}

func (qm *queue) Coefficients() []Coefficient {
	out := make([]Coefficient, 0, len(qm.knots))
	for _, k := range qm.knots {
		out = append(out, Coefficient{Model: "service_us", Name: fmt.Sprintf("s(%g)", k.Q), Value: k.Mean})
	}
	return out
}

func (qm *queue) Describe() string {
	k := qm.knots
	var capPerS float64
	if m := k[len(k)-1].Mean; m > 0 {
		capPerS = 1e6 / m
	}
	return fmt.Sprintf("M/M/1 over measured service demand: %d knots, Q in [%g, %g], s in [%g, %g] us, capacity at Qmax %.4g/s",
		len(k), k[0].Q, k[len(k)-1].Q, minMean(k), maxMean(k), capPerS)
}

func minMean(k []perfmodel.GroupStat) float64 {
	m := math.Inf(1)
	for _, s := range k {
		m = math.Min(m, s.Mean)
	}
	return m
}

func maxMean(k []perfmodel.GroupStat) float64 {
	m := math.Inf(-1)
	for _, s := range k {
		m = math.Max(m, s.Mean)
	}
	return m
}
