package harness

import (
	"fmt"
	"io"

	"repro/internal/assembly"
	"repro/internal/perfmodel"
	"repro/internal/results"
)

// ComponentModel is the fitted performance model of one component: the
// paper's Eqs. 1 (mean execution time) and 2 (standard deviation), with
// goodness-of-fit.
type ComponentModel struct {
	Kernel Kernel
	// Mean is the fitted mean-time model T(Q) in microseconds.
	Mean perfmodel.Model
	// Sigma is the fitted standard-deviation model sigma(Q).
	Sigma perfmodel.Model
	// MeanR2 is the coefficient of determination of the mean fit over the
	// grouped means.
	MeanR2 float64
	// Stats holds the grouped per-Q statistics the fits came from.
	Stats []perfmodel.GroupStat
}

// FitModels reproduces the paper's Section 5 regression analysis on a
// sweep: group the mode-mixed samples by Q, then fit the functional forms
// the paper reports — a power law for States' mean, linear fits for the
// flux kernels' means, linear sigma for Godunov, quartic sigma for EFM, and
// a power-law sigma for States.
func FitModels(s *SweepResult) (*ComponentModel, error) {
	q, wall := s.AllSeries()
	if len(q) == 0 {
		return nil, fmt.Errorf("harness: no samples to fit")
	}
	stats := perfmodel.GroupStats(q, wall)
	qm, mean := perfmodel.MeanSeries(stats)
	qs, sd := perfmodel.StdDevSeries(stats)

	cm := &ComponentModel{Kernel: s.Config.Kernel, Stats: stats}
	var err error
	switch s.Config.Kernel {
	case KernelStates:
		var m perfmodel.PowerLaw
		if m, err = perfmodel.PowerLawFit(qm, mean); err != nil {
			return nil, err
		}
		cm.Mean = m
		var sm perfmodel.PowerLaw
		if sm, err = perfmodel.PowerLawFit(qs, sd); err != nil {
			return nil, err
		}
		cm.Sigma = sm
	case KernelGodunov:
		var m perfmodel.Poly
		if m, err = perfmodel.LinFit(qm, mean); err != nil {
			return nil, err
		}
		cm.Mean = m
		var sm perfmodel.Poly
		if sm, err = perfmodel.LinFit(qs, sd); err != nil {
			return nil, err
		}
		cm.Sigma = sm
	case KernelEFM:
		var m perfmodel.Poly
		if m, err = perfmodel.LinFit(qm, mean); err != nil {
			return nil, err
		}
		cm.Mean = m
		// The paper's quartic sigma needs enough grouped sizes to be more
		// than an (oscillating) interpolant; sparse sweeps fall back to a
		// low-order fit.
		deg := 4
		if len(qs) < 10 {
			deg = 2
		}
		if len(qs) <= deg {
			deg = len(qs) - 1
		}
		var sm perfmodel.Poly
		if sm, err = perfmodel.PolyFit(qs, sd, deg); err != nil {
			return nil, err
		}
		cm.Sigma = sm
	default:
		return nil, fmt.Errorf("harness: unknown kernel %q", s.Config.Kernel)
	}
	cm.MeanR2 = perfmodel.R2(cm.Mean, qm, mean)
	return cm, nil
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

// BuildDual constructs the Fig. 10 composite-model dual from a case-study
// call trace and the fitted component models. Q values come from the mean
// recorded array sizes.
func BuildDual(res *CaseStudyResult, models map[Kernel]*ComponentModel) *assembly.Dual {
	d := assembly.NewDual()
	for _, e := range res.Edges {
		d.AddEdge(e.From, e.To, e.Method, e.Calls)
	}
	attach := func(vertex string, k Kernel) {
		cm, ok := models[k]
		if !ok || d.Vertex(vertex) == nil {
			return
		}
		v := *d.Vertex(vertex)
		v.Compute = cm.Mean
		v.Q = meanRecordedQ(res, k.RecordName())
		d.AddVertex(v)
	}
	attach("sc_proxy", KernelStates)
	attach("g_proxy", KernelGodunov)
	attach("efm_proxy", KernelEFM)
	// The mesh vertex carries a communication model: mean ghost-update MPI
	// time as a constant (its workload parameter is the level, not Q).
	if v := d.Vertex("icc_proxy"); v != nil {
		if rec := res.Record(0, "icc_proxy::ghostUpdate()"); rec != nil && len(rec.Invocations) > 0 {
			var mpi float64
			for i := range rec.Invocations {
				mpi += rec.Invocations[i].MPIUS
			}
			mpi /= float64(len(rec.Invocations))
			nv := *v
			nv.Comm = perfmodel.Poly{Coeffs: []float64{mpi}}
			nv.Q = 1
			d.AddVertex(nv)
		}
	}
	return d
}

// meanRecordedQ averages the Q parameter over a method's invocations on
// rank 0.
func meanRecordedQ(res *CaseStudyResult, method string) float64 {
	rec := res.Record(0, method)
	if rec == nil || len(rec.Invocations) == 0 {
		return 1
	}
	var sum float64
	n := 0
	for i := range rec.Invocations {
		if q, ok := rec.Invocations[i].Param("Q"); ok {
			sum += q
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
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
