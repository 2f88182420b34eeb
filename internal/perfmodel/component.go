package perfmodel

import "fmt"

// Fitter fits one model form to (x, y).
type Fitter func(x, y []float64) (Model, error)

// The model forms the fits choose among.
var (
	Linear    Fitter = func(x, y []float64) (Model, error) { return LinFit(x, y) }
	quadratic Fitter = func(x, y []float64) (Model, error) { return PolyFit(x, y, 2) }
	Power     Fitter = func(x, y []float64) (Model, error) { return PowerLawFit(x, y) }
)

// Best returns the form that fits every candidate form to (x, y) and keeps
// the AIC-best of those that fit; it fails only when none does.
func Best(forms ...Fitter) Fitter {
	return func(x, y []float64) (Model, error) {
		var cands []Model
		for _, fit := range forms {
			if m, err := fit(x, y); err == nil {
				cands = append(cands, m)
			}
		}
		if best := SelectBest(cands, x, y); best != nil {
			return best, nil
		}
		return nil, fmt.Errorf("perfmodel: no model form fits %d points", len(x))
	}
}

// efmSigma is Fig. 8's quartic. It needs enough grouped sizes to be more
// than an (oscillating) interpolant; sparse sweeps fall back to a
// low-order fit.
func efmSigma(x, y []float64) (Model, error) {
	deg := 4
	if len(x) < 10 {
		deg = 2
	}
	if len(x) <= deg {
		deg = len(x) - 1
	}
	return PolyFit(x, y, deg)
}

// componentForms maps a kernel name to its mean and sigma forms: the ones
// the paper reports for the kernels it measured (Figs. 6-8), and for ""
// the AIC-best of a line, a quadratic and a power law.
var componentForms = map[string][2]Fitter{
	"":        {Best(Linear, quadratic, Power), Best(Linear, quadratic, Power)},
	"states":  {Power, Power},
	"godunov": {Linear, Linear},
	"efm":     {Linear, efmSigma},
}

// IsKernel reports whether the paper reports model forms for the named
// kernel.
func IsKernel(name string) bool {
	_, ok := componentForms[name]
	return ok && name != ""
}

// Component is one component's fitted performance model: the paper's Eqs.
// 1 (mean time T(Q), microseconds) and 2 (standard deviation), each fit's
// R2 over the grouped points, and the grouped per-Q statistics.
type Component struct {
	Mean, Sigma     Model
	MeanR2, SigmaR2 float64
	Stats           []GroupStat
}

// FitComponent reproduces the paper's Section 5 regression on a
// component's grouped (Q, wall) statistics, in the forms componentForms
// gives the kernel. A fit that fails is the error: no other form stands in.
func FitComponent(stats []GroupStat, kernel string) (Component, error) {
	forms, ok := componentForms[kernel]
	if !ok {
		return Component{}, fmt.Errorf("perfmodel: unknown kernel %q", kernel)
	}
	q, mean := MeanSeries(stats)
	sd := make([]float64, len(stats))
	for i, s := range stats {
		sd[i] = s.StdDev
	}
	c := Component{Stats: stats}
	var err error
	if c.Mean, err = forms[0](q, mean); err != nil {
		return Component{}, fmt.Errorf("mean fit: %w", err)
	}
	if c.Sigma, err = forms[1](q, sd); err != nil {
		return Component{}, fmt.Errorf("sigma fit: %w", err)
	}
	c.MeanR2, c.SigmaR2 = R2(c.Mean, q, mean), R2(c.Sigma, q, sd)
	return c, nil
}
