// Adaptive demonstrates the paper's Section 6 "dynamic performance
// optimization": an AdaptiveFlux component forwards to GodunovFlux while
// its measured per-call times meet the fitted model's expectation, and
// switches to EFMFlux online the moment the expectation is violated for a
// sustained window. Here the expectation is deliberately fitted on small
// patches and then the workload grows past the cache, so the primary's
// measured times blow through the tolerance mid-run.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cca"
	"repro/internal/components"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the adaptive assembly through the growing patches, printing
// one line per patch to w.
func run(w io.Writer) error {
	wcfg := mpi.DefaultConfig()
	wcfg.Procs = 1
	return cca.RunSCMD(mpi.NewWorld(wcfg), func(f *cca.Framework, r *mpi.Rank) error {
		// Expectation: Godunov stays near its small-patch cost. Larger
		// patches exceed this model once the cache overflows.
		expect := perfmodel.Poly{Coeffs: []float64{0, 0.25}} // 0.25 us/cell

		var adaptor *components.AdaptiveFlux
		f.RegisterClass("GodunovFlux", components.NewGodunovFlux)
		f.RegisterClass("EFMFlux", components.NewEFMFlux)
		f.RegisterClass("AdaptiveFlux", func() cca.Component {
			adaptor = &components.AdaptiveFlux{Expectation: expect, Tolerance: 1.15, Window: 3}
			return adaptor
		})
		script := `
instantiate GodunovFlux god0
instantiate EFMFlux efm0
instantiate AdaptiveFlux adaptive0
connect adaptive0 primary god0 flux
connect adaptive0 fallback efm0 flux
`
		if err := f.RunScript(script); err != nil {
			return err
		}
		port, err := f.LookupProvides("adaptive0", "flux")
		if err != nil {
			return err
		}
		fp := port.(components.FluxPort)

		proc := r.Proc
		pr := euler.DefaultShockInterface()
		for _, side := range []int{32, 64, 128, 384, 384, 384, 384, 384} {
			b := euler.NewBlock(proc, side, side, 2)
			pr.InitBlock(b, 0, 0, pr.Lx/float64(side), pr.Ly/float64(side))
			b.FillBoundary(true, true, true, true)
			qL := euler.NewEdgeField(proc, side, side, euler.Y)
			qR := euler.NewEdgeField(proc, side, side, euler.Y)
			fl := euler.NewEdgeField(proc, side, side, euler.Y)
			euler.States(proc, b, euler.Y, qL, qR)
			t0 := proc.Now()
			fp.Compute(qL, qR, fl)
			fmt.Fprintf(w, "patch %3dx%-3d (Q=%6d): %9.1f us  expectation %9.1f us  switched=%v\n",
				side, side, side*side, proc.Now()-t0,
				expect.Predict(float64(side*side)), adaptor.Switched())
		}
		if adaptor.Switched() {
			fmt.Fprintln(w, "\nexpectation violated for a sustained window: the assembly now runs EFMFlux")
		} else {
			fmt.Fprintln(w, "\nexpectation held: the assembly kept GodunovFlux")
		}
		return nil
	})
}
