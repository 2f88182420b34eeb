package harness

import "testing"

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

func TestCacheAwareFitEmpty(t *testing.T) {
	t.Parallel()
	if _, _, _, err := CacheAwareFit(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
}
