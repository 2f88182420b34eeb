package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
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
// invocation's recorded cache misses: T = c0 + c1*Q + c2*DCM. It returns
// the multivariate model, its R², and the R² of the Q-only linear fit on
// the identical samples for comparison.
func CacheAwareFit(s *SweepResult) (perfmodel.MultiLin, float64, float64, error) {
	var rows [][]float64
	var qOnly, y []float64
	for _, p := range s.Points {
		rows = append(rows, []float64{float64(p.Q), p.Misses})
		qOnly = append(qOnly, float64(p.Q))
		y = append(y, p.WallUS)
	}
	if len(rows) == 0 {
		return perfmodel.MultiLin{}, 0, 0, fmt.Errorf("harness: no samples")
	}
	ml, err := perfmodel.MultiLinFit([]string{"Q", "DCM"}, rows, y)
	if err != nil {
		return perfmodel.MultiLin{}, 0, 0, err
	}
	r2 := perfmodel.R2Multi(ml, rows, y)
	plain, err := perfmodel.LinFit(qOnly, y)
	if err != nil {
		return perfmodel.MultiLin{}, 0, 0, err
	}
	plainR2 := perfmodel.R2(plain, qOnly, y)
	return ml, r2, plainR2, nil
}
