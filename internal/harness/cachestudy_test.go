package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
)

func TestCacheAwareFitExplainsModeSplit(t *testing.T) {
	t.Parallel()
	_, sweeps, _ := sharedFixtures(t)
	sw := sweeps[KernelStates]
	// The sweep must have recorded per-invocation miss deltas.
	sawMisses := false
	for _, p := range sw.Points {
		if p.Misses > 0 {
			sawMisses = true
		}
	}
	if !sawMisses {
		t.Fatal("sweep points carry no PAPI_L2_DCM deltas")
	}
	ml, r2Aware, r2Plain, err := CacheAwareFit(sw.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Coeffs) != 3 {
		t.Fatalf("cache-aware model = %v", ml)
	}
	// Folding the cache information in must explain strictly more variance
	// than Q alone — the Section 6 claim this extension implements.
	if r2Aware <= r2Plain {
		t.Errorf("cache-aware R2 %.4f should beat Q-only R2 %.4f", r2Aware, r2Plain)
	}
	if r2Aware < 0.9 {
		t.Errorf("cache-aware R2 = %.4f, want > 0.9 (DCM explains the mode split)", r2Aware)
	}
	// The miss coefficient must be positive: misses cost time.
	if ml.Coeffs[2] <= 0 {
		t.Errorf("DCM coefficient = %g, want > 0", ml.Coeffs[2])
	}
}

func TestRunCacheStudyCoefficientsMove(t *testing.T) {
	t.Parallel()
	base := fastSweep(KernelStates)
	base.Sizes = LogSizes(4_000, 100_000, 4)
	pts, err := RunCacheStudy(context.Background(), campaign.Config{}, base, []int{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("cache points = %d", len(pts))
	}
	// Same functional form (power law), different coefficients: the small
	// cache makes States more expensive across the sweep.
	small := pts[0].Model.Mean
	big := pts[1].Model.Mean
	if _, ok := small.(perfmodel.PowerLaw); !ok {
		t.Fatalf("small-cache model is %T", small)
	}
	const q = 80_000
	if small.Predict(q) <= big.Predict(q) {
		t.Errorf("128 kB model (%.0f us) should exceed 1 MB model (%.0f us) at Q=%d",
			small.Predict(q), big.Predict(q), q)
	}
	var sb strings.Builder
	if err := WriteCacheStudy(&sb, KernelStates, pts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"128 kB", "1024 kB", "sc_proxy::compute()"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("cache study report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestCacheAwareFitEmpty(t *testing.T) {
	t.Parallel()
	if _, _, _, err := CacheAwareFit(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
}
