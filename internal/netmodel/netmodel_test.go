package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanIsAlphaBeta(t *testing.T) {
	m := Model{LatencyUS: 10, BytesPerUS: 100}
	if got := m.Mean(0); got != 10 {
		t.Errorf("Mean(0) = %g, want 10", got)
	}
	if got := m.Mean(1000); got != 20 {
		t.Errorf("Mean(1000) = %g, want 20", got)
	}
}

func TestPointToPointNoNoiseEqualsMean(t *testing.T) {
	m := Model{LatencyUS: 10, BytesPerUS: 100}
	rng := rand.New(rand.NewSource(1))
	if got, want := m.PointToPoint(500, rng), m.Mean(500); got != want {
		t.Errorf("PointToPoint = %g, want %g", got, want)
	}
}

func TestPointToPointNilRNG(t *testing.T) {
	m := FastEthernet()
	if got, want := m.PointToPoint(128, nil), m.Mean(128); got != want {
		t.Errorf("nil-rng PointToPoint = %g, want mean %g", got, want)
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	m := Model{LatencyUS: 10, BytesPerUS: 100}
	if got := m.PointToPoint(-64, nil); got != 10 {
		t.Errorf("PointToPoint(-64) = %g, want latency only (10)", got)
	}
}

func TestNoiseMeanIsApproximatelyOne(t *testing.T) {
	m := FastEthernet()
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.PointToPoint(1000, rng)
	}
	mean := sum / n
	want := m.Mean(1000)
	if rel := math.Abs(mean-want) / want; rel > 0.03 {
		t.Errorf("empirical mean %g deviates from model mean %g by %.1f%%", mean, want, rel*100)
	}
}

func TestNoiseProducesScatter(t *testing.T) {
	m := FastEthernet()
	rng := rand.New(rand.NewSource(3))
	a := m.PointToPoint(1000, rng)
	b := m.PointToPoint(1000, rng)
	if a == b {
		t.Error("two noisy samples identical; noise not applied")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	m := FastEthernet()
	sample := func() []float64 {
		rng := rand.New(rand.NewSource(11))
		out := make([]float64, 5)
		for i := range out {
			out[i] = m.PointToPoint(256, rng)
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for p, want := range cases {
		if got := ceilLog2(p); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestCollectiveShapes(t *testing.T) {
	m := Model{LatencyUS: 10, BytesPerUS: 100}
	// P=4 => 2 rounds.
	if got := m.Collective(Barrier, 4, 0, nil); got != 20 {
		t.Errorf("Barrier(4) = %g, want 20", got)
	}
	if got := m.Collective(Allreduce, 4, 1000, nil); got != 80 {
		t.Errorf("Allreduce(4,1000) = %g, want 80", got)
	}
	if got := m.Collective(Bcast, 4, 1000, nil); got != 40 {
		t.Errorf("Bcast(4,1000) = %g, want 40", got)
	}
	if got := m.Collective(Allgather, 4, 1000, nil); got != 60 {
		t.Errorf("Allgather(4,1000) = %g, want 60 (3 ring steps)", got)
	}
}

func TestCollectiveSingleRankCheap(t *testing.T) {
	m := FastEthernet()
	if got := m.Collective(Allreduce, 1, 8, nil); got != 0 {
		t.Errorf("Allreduce over P=1 = %g, want 0 (no rounds)", got)
	}
	if got := m.Collective(Barrier, 0, 0, nil); got != 0 {
		t.Errorf("Barrier over P=0 = %g, want 0", got)
	}
}

// Property: costs are nonnegative and monotone in message size.
func TestPropertyMonotoneInSize(t *testing.T) {
	m := FastEthernet()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Mean(x) <= m.Mean(y) && m.Mean(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: collective cost is monotone in P for every kind.
func TestPropertyCollectiveMonotoneInP(t *testing.T) {
	m := FastEthernet()
	kinds := []CollectiveKind{Barrier, Allreduce, Bcast, Allgather}
	for _, k := range kinds {
		prev := 0.0
		for p := 1; p <= 64; p *= 2 {
			got := m.Collective(k, p, 512, nil)
			if got < prev {
				t.Errorf("kind %d: cost decreased from %g to %g at P=%d", k, prev, got, p)
			}
			prev = got
		}
	}
}
