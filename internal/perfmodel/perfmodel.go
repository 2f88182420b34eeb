// Package perfmodel builds the paper's per-component performance models
// (Section 5, Eqs. 1–2) by regression on Mastermind records: polynomial
// least-squares fits ("T = -963 + 0.315 Q") and power-law fits on log-log
// axes ("T = exp(1.19 log(Q) - 3.68)"), plus grouped mean/standard-
// deviation statistics over repeated parameter values and fit-quality
// metrics for model selection.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Model predicts a time (microseconds) from one input parameter (the
// paper's array size Q).
type Model interface {
	Predict(q float64) float64
	// String renders the model like the paper's equations.
	String() string
	// DOF returns the number of fitted parameters (for AIC).
	DOF() int
}

// Poly is a polynomial model c0 + c1 q + c2 q^2 + ...
type Poly struct {
	Coeffs []float64
}

// Predict implements Model.
func (p Poly) Predict(q float64) float64 {
	s := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		s = s*q + p.Coeffs[i]
	}
	return s
}

// DOF implements Model.
func (p Poly) DOF() int { return len(p.Coeffs) }

// String renders e.g. "-963 + 0.315*Q + 1.2e-05*Q^2".
func (p Poly) String() string {
	var parts []string
	for i, c := range p.Coeffs {
		switch {
		case i == 0:
			parts = append(parts, fmt.Sprintf("%.4g", c))
		case i == 1:
			parts = append(parts, fmt.Sprintf("%+.4g*Q", c))
		default:
			parts = append(parts, fmt.Sprintf("%+.4g*Q^%d", c, i))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " ")
}

// PowerLaw is T = exp(B*log(q) + LnA) = A * q^B.
type PowerLaw struct {
	LnA, B float64
}

// Predict implements Model.
func (p PowerLaw) Predict(q float64) float64 {
	if q <= 0 {
		return 0
	}
	return math.Exp(p.B*math.Log(q) + p.LnA)
}

// DOF implements Model.
func (p PowerLaw) DOF() int { return 2 }

// String renders the paper's Eq. 1 form: "exp(1.19*log(Q) - 3.68)".
func (p PowerLaw) String() string {
	return fmt.Sprintf("exp(%.4g*log(Q) %+.4g)", p.B, p.LnA)
}

// solveLinear solves A x = b by Gaussian elimination with partial pivoting.
// A is row-major n x n and is destroyed.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return nil, fmt.Errorf("perfmodel: singular normal equations at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// PolyFit fits a degree-d polynomial by least squares. The abscissa is
// internally rescaled to [0,1] before forming the normal equations, which
// keeps high-degree fits over large Q numerically sane.
func PolyFit(x, y []float64, degree int) (Poly, error) {
	if len(x) != len(y) {
		return Poly{}, fmt.Errorf("perfmodel: x/y length mismatch %d/%d", len(x), len(y))
	}
	n := degree + 1
	if len(x) < n {
		return Poly{}, fmt.Errorf("perfmodel: %d points cannot fit degree %d", len(x), degree)
	}
	scale := 0.0
	for _, v := range x {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	if scale == 0 {
		scale = 1
	}
	// Normal equations in the scaled variable t = x/scale.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	b := make([]float64, n)
	for k := range x {
		t := x[k] / scale
		pows := make([]float64, n)
		p := 1.0
		for i := 0; i < n; i++ {
			pows[i] = p
			p *= t
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] += pows[i] * pows[j]
			}
			b[i] += pows[i] * y[k]
		}
	}
	ct, err := solveLinear(a, b)
	if err != nil {
		return Poly{}, err
	}
	// Unscale: c_i = ct_i / scale^i.
	coeffs := make([]float64, n)
	s := 1.0
	for i := 0; i < n; i++ {
		coeffs[i] = ct[i] / s
		s *= scale
	}
	return Poly{Coeffs: coeffs}, nil
}

// LinFit is a convenience degree-1 PolyFit (the paper's Godunov/EFM form).
func LinFit(x, y []float64) (Poly, error) { return PolyFit(x, y, 1) }

// PowerLawFit fits T = A q^B by linear regression in log-log space,
// ignoring non-positive samples (which have no logarithm).
func PowerLawFit(x, y []float64) (PowerLaw, error) {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	if len(lx) < 2 {
		return PowerLaw{}, fmt.Errorf("perfmodel: %d positive points cannot fit a power law", len(lx))
	}
	lin, err := PolyFit(lx, ly, 1)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{LnA: lin.Coeffs[0], B: lin.Coeffs[1]}, nil
}

// R2 returns the coefficient of determination of the model on (x, y).
func R2(m Model, x, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - m.Predict(x[i])
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// AIC returns the Akaike information criterion (Gaussian residuals),
// lower is better.
func AIC(m Model, x, y []float64) float64 {
	n := float64(len(y))
	if n == 0 {
		return math.Inf(1)
	}
	rss := 0.0
	for i := range y {
		d := y[i] - m.Predict(x[i])
		rss += d * d
	}
	if rss <= 0 {
		rss = 1e-300
	}
	return n*math.Log(rss/n) + 2*float64(m.DOF())
}

// SelectBest returns the candidate with the lowest AIC on (x, y).
func SelectBest(cands []Model, x, y []float64) Model {
	var best Model
	bestAIC := math.Inf(1)
	for _, m := range cands {
		if a := AIC(m, x, y); a < bestAIC {
			best, bestAIC = m, a
		}
	}
	return best
}

// Coefficients names and extracts a fitted model's parameters, the input
// to cross-scenario trend analysis (refitting each coefficient against a
// machine parameter such as cache size — the paper's Section 6
// "coefficients parameterized by a cache model"). PowerLaw yields
// ("lnA", "B") and Poly ("c0", "c1", ...); unknown model kinds yield
// nothing.
func Coefficients(m Model) (names []string, values []float64) {
	switch v := m.(type) {
	case PowerLaw:
		return []string{"lnA", "B"}, []float64{v.LnA, v.B}
	case Poly:
		names = make([]string, len(v.Coeffs))
		values = make([]float64, len(v.Coeffs))
		for i, c := range v.Coeffs {
			names[i] = fmt.Sprintf("c%d", i)
			values[i] = c
		}
		return names, values
	}
	return nil, nil
}

// GroupStat is the aggregate of all samples sharing one parameter value.
type GroupStat struct {
	Q      float64
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// GroupStats aggregates (x, y) samples by exact x value and returns the
// per-group statistics sorted by x — the "average over both modes plus a
// standard deviation" analysis the paper applies before fitting (Figs 6-8).
func GroupStats(x, y []float64) []GroupStat {
	type acc struct {
		n                  int
		sum, sumSq, mn, mx float64
	}
	groups := map[float64]*acc{}
	for i := range x {
		g := groups[x[i]]
		if g == nil {
			g = &acc{mn: y[i], mx: y[i]}
			groups[x[i]] = g
		}
		g.n++
		g.sum += y[i]
		g.sumSq += y[i] * y[i]
		if y[i] < g.mn {
			g.mn = y[i]
		}
		if y[i] > g.mx {
			g.mx = y[i]
		}
	}
	out := make([]GroupStat, 0, len(groups))
	for q, g := range groups {
		n := float64(g.n)
		mean := g.sum / n
		v := g.sumSq/n - mean*mean
		if v < 0 {
			v = 0
		}
		out = append(out, GroupStat{
			Q: q, N: g.n, Mean: mean, StdDev: math.Sqrt(v), Min: g.mn, Max: g.mx,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Q < out[j].Q })
	return out
}

// MeanSeries extracts (Q, mean) from grouped stats.
func MeanSeries(stats []GroupStat) (q, mean []float64) {
	for _, s := range stats {
		q = append(q, s.Q)
		mean = append(mean, s.Mean)
	}
	return q, mean
}
