package harness

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
	"repro/internal/results"
)

// This file implements the paper's Section 6 outlook: "The models derived
// here are valid only on a similar cluster. Any significant change, such as
// halving of the cache size, will have a large effect on the coefficients
// in the models (though the functional form is expected to remain
// unchanged). Ideally, the coefficients should be parameterized by
// processor speed and a cache model. We will address this in future work,
// where the cache information collected during these tests will be
// employed."
//
// Two instruments:
//
//   - RunCacheStudy refits a kernel's model under different cache sizes and
//     shows the coefficients moving while the functional form stays put;
//   - CacheAwareFit folds the recorded PAPI_L2_DCM deltas into a
//     multivariate model T(Q, DCM), which explains the mode split a
//     Q-only model has to average over.

// RunCacheStudy refits the kernel under each cache size (in kB), one
// stream job per size on cc's workers; the points come back in cacheKBs
// order. Every other parameter of the base sweep is kept — the seed
// included, which is why the scenarios are built here and not expanded
// from a Grid with a CacheAxis: expansion derives a seed per scenario key.
func RunCacheStudy(ctx context.Context, cc campaign.Config, base SweepConfig, cacheKBs []int) ([]GridPoint, error) {
	jobs := make([]campaign.Job, len(cacheKBs))
	for i, kb := range cacheKBs {
		w := base.World
		w.Cache.SizeBytes = kb * 1024
		jobs[i] = StreamJob(base, campaign.Scenario{Key: fmt.Sprintf("cache/%dkB", kb), World: w})
	}
	return runStreamJobs(ctx, cc, jobs)
}

// WriteCacheStudy prints the per-cache-size model comparison.
func WriteCacheStudy(w io.Writer, kernel Kernel, pts []GridPoint) error {
	if _, err := fmt.Fprintf(w, "cache-size study for %s (functional form fixed, coefficients move):\n",
		kernel.RecordName()); err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "  %5d kB: T = %s\n", p.Scenario.World.Cache.SizeBytes/1024, p.Model.Mean)
	}
	return nil
}

// CacheAwareFit regresses wall time on both the array size and the
// invocation's recorded cache misses: T = c0 + c1*Q + c2*DCM, over sweep
// telemetry rows (SweepResult.Rows, or what a stream job emitted to the
// campaign sink: columns q, l2_dcm, wall_us). It returns the multivariate
// model, its R², and the R² of the Q-only linear fit on the identical
// samples for comparison.
func CacheAwareFit(rows []results.Row) (perfmodel.MultiLin, float64, float64, error) {
	cols := results.ProjectRows(rows, "q", "l2_dcm", "wall_us")
	if cols.Rows == 0 {
		return perfmodel.MultiLin{}, 0, 0, fmt.Errorf("harness: no samples")
	}
	for _, present := range cols.Present {
		if slices.Contains(present, false) {
			return perfmodel.MultiLin{}, 0, 0, fmt.Errorf("harness: rows lack a numeric q, l2_dcm or wall_us")
		}
	}
	qOnly, dcm, y := cols.Values[0], cols.Values[1], cols.Values[2]
	x := make([][]float64, cols.Rows)
	for i := range x {
		x[i] = []float64{qOnly[i], dcm[i]}
	}
	ml, err := perfmodel.MultiLinFit([]string{"Q", "DCM"}, x, y)
	if err != nil {
		return perfmodel.MultiLin{}, 0, 0, err
	}
	r2 := perfmodel.R2Multi(ml, x, y)
	plain, err := perfmodel.LinFit(qOnly, y)
	if err != nil {
		return perfmodel.MultiLin{}, 0, 0, err
	}
	plainR2 := perfmodel.R2(plain, qOnly, y)
	return ml, r2, plainR2, nil
}
