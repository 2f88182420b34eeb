package mpi

import (
	"testing"

	"repro/internal/platform"
)

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

// TestCPUTuneDefaultsBitForBit pins the satellite contract: both the zero
// tune and the explicit identity tune leave calibrated timings bit-for-bit
// unchanged, so every pre-Tune config measures exactly what it used to.
func TestCPUTuneDefaultsBitForBit(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	ref := chargeAndClock(t, cfg)

	zero := cfg
	zero.Tune = CPUTune{}
	if got := chargeAndClock(t, zero); got != ref {
		t.Errorf("zero tune drifted the clock: %v vs %v", got, ref)
	}
	one := cfg
	one.Tune = CPUTune{ClockScale: 1, HitScale: 1, MissScale: 1}
	if got := chargeAndClock(t, one); got != ref {
		t.Errorf("identity tune drifted the clock: %v vs %v", got, ref)
	}
}

// TestCPUTuneScalesTimings checks each knob moves virtual time the right
// way: a faster clock shrinks everything proportionally, and a heavier
// miss penalty slows memory-bound work without touching pure compute.
func TestCPUTuneScalesTimings(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	ref := chargeAndClock(t, cfg)

	fast := cfg
	fast.Tune = CPUTune{ClockScale: 2}
	if got := chargeAndClock(t, fast); got >= ref {
		t.Errorf("doubled clock did not speed up: %v vs %v", got, ref)
	} else if ratio := ref / got; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("doubled clock scaled time by %v, want ~2", ratio)
	}

	slowMem := cfg
	slowMem.Tune = CPUTune{MissScale: 4}
	if got := chargeAndClock(t, slowMem); got <= ref {
		t.Errorf("quadrupled miss penalty did not slow down: %v vs %v", got, ref)
	}

	m := CPUTune{ClockScale: 2, HitScale: 0.5, MissScale: 3}.Apply(platform.XeonModel())
	x := platform.XeonModel()
	if m.ClockGHz != 2*x.ClockGHz || m.HitCycles != 0.5*x.HitCycles || m.MissCycles != 3*x.MissCycles {
		t.Errorf("Apply scaled wrong: %+v", m)
	}
	if m.CyclesPerFlop != x.CyclesPerFlop || m.SeqMissFactor != x.SeqMissFactor || m.CallCycles != x.CallCycles {
		t.Errorf("Apply touched unrelated fields: %+v", m)
	}
}
