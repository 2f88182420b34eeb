package harness

import (
	"fmt"
	"slices"

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
// The coefficients' move with cache size is the trend grid's (trend.go,
// over StreamSweepGrid and campaign.CacheAxis). CacheAwareFit is the other
// instrument: it folds the recorded PAPI_L2_DCM deltas into a
// multivariate model T(Q, DCM), which explains the mode split a Q-only
// model has to average over.

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
