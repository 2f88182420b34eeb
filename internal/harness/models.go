package harness

import (
	"fmt"
	"io"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/results"
)

// ComponentModel is the fitted performance model of one component: the
// paper's Eqs. 1 (mean execution time) and 2 (standard deviation), with
// goodness-of-fit.
type ComponentModel struct {
	Kernel Kernel
	perfmodel.Component
}

// FitModels reproduces the paper's Section 5 regression analysis on a
// sweep: group the mode-mixed samples by Q, then fit the functional forms
// the paper reports for the kernel (perfmodel.FitComponent).
func FitModels(s *SweepResult) (*ComponentModel, error) {
	q, wall := s.AllSeries()
	if len(q) == 0 {
		return nil, fmt.Errorf("harness: no samples to fit")
	}
	c, err := perfmodel.FitComponent(perfmodel.GroupStats(q, wall), string(s.Config.Kernel))
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", s.Config.Kernel, err)
	}
	return &ComponentModel{Kernel: s.Config.Kernel, Component: c}, nil
}

// paperEquation returns the paper's published Eq. 1/Eq. 2 expressions for
// comparison in reports.
func paperEquation(k Kernel) (mean, sigma string) {
	switch k {
	case KernelStates:
		return "exp(1.19*log(Q) - 3.68)", "power law (Eq. 2, OCR-garbled in source)"
	case KernelGodunov:
		return "-963 + 0.315*Q", "-526 + 0.152*Q"
	default:
		return "-8.13 + 0.16*Q", "66.7 - 0.015*Q + ... (quartic)"
	}
}

// WriteModelReport prints the paper-vs-measured model comparison (the
// Eq. 1/Eq. 2 reproduction).
func WriteModelReport(w io.Writer, cm *ComponentModel) error {
	pm, ps := paperEquation(cm.Kernel)
	if _, err := fmt.Fprintf(w, "component: %s\n", cm.Kernel.RecordName()); err != nil {
		return err
	}
	fmt.Fprintf(w, "  mean   (paper):    T = %s\n", pm)
	fmt.Fprintf(w, "  mean   (measured): T = %s   [R2=%.4f]\n", cm.Mean, cm.MeanR2)
	fmt.Fprintf(w, "  sigma  (paper):    s = %s\n", ps)
	fmt.Fprintf(w, "  sigma  (measured): s = %s\n", cm.Sigma)
	for _, g := range cm.Stats {
		fmt.Fprintf(w, "    Q=%8.0f  n=%3d  mean=%12.2f us  sigma=%12.2f us  model=%12.2f us\n",
			g.Q, g.N, g.Mean, g.StdDev, cm.Mean.Predict(g.Q))
	}
	return nil
}

// WriteMeanSigmaCSV writes the Fig. 6/7/8 series: per-Q mean, sigma, and
// the fitted models' predictions.
func WriteMeanSigmaCSV(w io.Writer, cm *ComponentModel) error {
	enc := results.NewCSVEncoder(w)
	if err := enc.Header("q", "n", "mean_us", "sigma_us", "mean_fit_us", "sigma_fit_us"); err != nil {
		return err
	}
	for _, g := range cm.Stats {
		if err := enc.Encode(results.Row{
			results.F("q", g.Q), results.F("n", g.N),
			results.F("mean_us", g.Mean), results.F("sigma_us", g.StdDev),
			results.F("mean_fit_us", cm.Mean.Predict(g.Q)),
			results.F("sigma_fit_us", cm.Sigma.Predict(g.Q)),
		}); err != nil {
			return err
		}
	}
	return nil
}

// BuildDual constructs the Fig. 10 composite-model dual from rank 0's call
// trace, read off its records, and the fitted component models. Q values
// come from the mean recorded array sizes on rank 0.
func BuildDual(res *CaseStudyResult, models map[Kernel]*ComponentModel) *assembly.Dual {
	d := assembly.FromTrace(core.Trace(res.Records[0]))
	attach := func(vertex string, k Kernel) {
		cm, ok := models[k]
		if !ok || d.Vertex(vertex) == nil {
			return
		}
		v := *d.Vertex(vertex)
		v.Compute, v.Q = cm.Mean, 1
		if rec := res.Record(0, k.RecordName()); rec != nil && len(rec.Param("Q")) > 0 {
			v.Q = mean(rec.Param("Q"))
		}
		d.AddVertex(v)
	}
	attach("sc_proxy", KernelStates)
	attach("g_proxy", KernelGodunov)
	attach("efm_proxy", KernelEFM)
	// The mesh vertex carries a communication model: mean ghost-update MPI
	// time as a constant (its workload parameter is the level, not Q).
	if v := d.Vertex("icc_proxy"); v != nil {
		if rec := res.Record(0, "icc_proxy::ghostUpdate()"); rec != nil && rec.Len() > 0 {
			nv := *v
			nv.Comm = perfmodel.Poly{Coeffs: []float64{mean(rec.MPIUS)}}
			nv.Q = 1
			d.AddVertex(nv)
		}
	}
	return d
}

// mean averages a non-empty record column, summing in invocation order.
func mean(col []float64) float64 {
	var sum float64
	for _, v := range col {
		sum += v
	}
	return sum / float64(len(col))
}

// FluxSlot builds the paper's implementation-choice slot: GodunovFlux
// (accurate, QoS 1.0) versus EFMFlux (fast, QoS 0.7), from fitted models.
func FluxSlot(vertex string, godunov, efm *ComponentModel) assembly.Slot {
	return assembly.Slot{
		Vertex: vertex,
		Impls: []assembly.Implementation{
			{Name: "GodunovFlux", Compute: godunov.Mean, QoS: 1.0},
			{Name: "EFMFlux", Compute: efm.Mean, QoS: 0.7},
		},
	}
}
