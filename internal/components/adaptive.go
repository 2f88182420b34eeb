package components

import (
	"repro/internal/cca"
	"repro/internal/euler"
	"repro/internal/perfmodel"
)

// AdaptiveFlux implements the paper's Section 6 outlook — "dynamic
// performance optimization which uses online performance monitoring to
// determine when performance expectations are not being met and new
// model-guided decisions of component use need to take place" — as a CCA
// component: it provides a FluxPort, forwards to a primary implementation
// while its measured per-call times stay within a tolerance of the fitted
// performance model, and switches to the fallback implementation the
// moment the expectation is violated over a full observation window.
type AdaptiveFlux struct {
	svc      cca.Services
	primary  FluxPort
	fallback FluxPort

	// Expectation predicts the primary's per-call microseconds at array
	// size Q; Tolerance is the acceptable measured/predicted overrun
	// (e.g. 1.5); Window is how many consecutive violations trigger the
	// switch.
	Expectation perfmodel.Model
	Tolerance   float64
	Window      int

	violations int
	switched   bool
	calls      int
}

// SetServices declares the two candidate implementations and registers the
// provided FluxPort.
func (a *AdaptiveFlux) SetServices(svc cca.Services) error {
	a.svc = svc
	if err := svc.RegisterUsesPort("primary", TypeFluxPort); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("fallback", TypeFluxPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(a, "flux", TypeFluxPort)
}

// wire resolves the candidate ports.
func (a *AdaptiveFlux) wire() {
	if a.primary == nil {
		a.primary = cca.Use[FluxPort](a.svc, "primary")
		a.fallback = cca.Use[FluxPort](a.svc, "fallback")
	}
}

// Switched reports whether the adaptor has replaced the primary.
func (a *AdaptiveFlux) Switched() bool { return a.switched }

// Calls returns how many invocations the adaptor has forwarded.
func (a *AdaptiveFlux) Calls() int { return a.calls }

// Compute implements FluxPort: forward, measure (virtual time), compare
// against the expectation, and switch implementations on sustained
// violation.
func (a *AdaptiveFlux) Compute(qL, qR, flux *euler.EdgeField) int {
	a.wire()
	a.calls++
	target := a.primary
	if a.switched {
		target = a.fallback
	}
	ctx := a.svc.Context()
	t0 := ctx.Proc.Now()
	iters := target.Compute(qL, qR, flux)
	if a.switched || a.Expectation == nil {
		return iters
	}
	elapsed := ctx.Proc.Now() - t0
	q := float64(qL.NxCells * qL.NyCells)
	expect := a.Expectation.Predict(q)
	tol := a.Tolerance
	if tol <= 0 {
		tol = 1.5
	}
	if expect > 0 && elapsed > tol*expect {
		a.violations++
	} else {
		a.violations = 0
	}
	win := a.Window
	if win <= 0 {
		win = 3
	}
	if a.violations >= win {
		a.switched = true
	}
	return iters
}
