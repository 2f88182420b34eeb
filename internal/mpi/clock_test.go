package mpi

import "testing"

// chargeAndClock runs a one-rank world whose body charges a fixed mix of
// flops and memory traffic, returning the final virtual clock.
func chargeAndClock(t *testing.T, cfg WorldConfig) float64 {
	t.Helper()
	cfg.Procs = 1
	var clock float64
	w := NewWorld(cfg)
	if err := w.Run(func(r *Rank) {
		base := r.Proc.Alloc(1 << 20)
		r.Proc.ChargeFlops(10_000)
		r.Proc.ChargeStream(base, 4096, 8)    // sequential
		r.Proc.ChargeStream(base, 4096, 4096) // strided, misses
		clock = r.Proc.Now()
	}); err != nil {
		t.Fatal(err)
	}
	return clock
}

// TestClockScalesTimings checks that the clock is the machine's speed: a
// doubled CPU.ClockGHz halves the virtual time of the same charges.
func TestClockScalesTimings(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	ref := chargeAndClock(t, cfg)

	fast := cfg
	fast.CPU.ClockGHz *= 2
	if got := chargeAndClock(t, fast); got >= ref {
		t.Errorf("doubled clock did not speed up: %v vs %v", got, ref)
	} else if ratio := ref / got; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("doubled clock scaled time by %v, want ~2", ratio)
	}
}
