// Package netmodel provides the interconnect cost model for the simulated
// cluster: a latency/bandwidth (alpha-beta) model with multiplicative,
// seeded lognormal noise standing in for the fluctuating network load the
// paper observed on its shared cluster (Fig. 9).
package netmodel

import (
	"math"
	"math/rand"
)

// Model describes point-to-point and collective communication costs.
// All times are virtual microseconds.
type Model struct {
	// LatencyUS is the per-message latency (the alpha term).
	LatencyUS float64
	// BytesPerUS is the link bandwidth (the 1/beta term).
	BytesPerUS float64
	// NoiseSigma is the sigma of the lognormal noise multiplier applied to
	// each transfer. Zero disables noise. The multiplier has mean 1.
	NoiseSigma float64
	// SoftwareUS is the fixed per-call software overhead charged to the
	// caller even when no data moves (e.g. MPI_Comm_dup, MPI_Wtime).
	SoftwareUS float64
}

// FastEthernet returns a model of the paper-era commodity cluster
// interconnect (a ~100 Mb/s switched network with tens-of-microseconds
// latency and visible load fluctuation).
func FastEthernet() Model {
	return Model{
		LatencyUS:  55,
		BytesPerUS: 11.5, // ~92 Mb/s effective
		NoiseSigma: 0.35,
		SoftwareUS: 0.9,
	}
}

// noise draws a mean-1 lognormal multiplier from rng.
func (m Model) noise(rng *rand.Rand) float64 {
	if m.NoiseSigma <= 0 || rng == nil {
		return 1
	}
	s := m.NoiseSigma
	return math.Exp(s*rng.NormFloat64() - s*s/2)
}

// PointToPoint returns the transfer time for a message of the given size.
// The rng supplies the load-fluctuation noise; it may be nil for a
// noise-free estimate.
func (m Model) PointToPoint(bytes int, rng *rand.Rand) float64 {
	if bytes < 0 {
		bytes = 0
	}
	base := m.LatencyUS + float64(bytes)/m.BytesPerUS
	return base * m.noise(rng)
}

// Mean returns the expected (noise-free) point-to-point time.
func (m Model) Mean(bytes int) float64 {
	return m.LatencyUS + float64(bytes)/m.BytesPerUS
}

// CollectiveKind selects the algorithm shape used to cost a collective.
type CollectiveKind int

// Collective kinds.
const (
	// Barrier is a pure synchronization; costed as a dissemination
	// barrier: ceil(log2 P) latency-only rounds.
	Barrier CollectiveKind = iota
	// Allreduce moves a fixed-size buffer up and back down a binomial tree.
	Allreduce
	// Bcast moves the buffer down a binomial tree.
	Bcast
	// Allgather aggregates per-rank contributions; the payload grows with P.
	Allgather
)

// Collective returns the time a rank spends inside a collective over P
// ranks with a per-rank payload of the given size. The cost follows the
// usual binomial-tree shapes; noise is applied once per call.
func (m Model) Collective(kind CollectiveKind, p, bytes int, rng *rand.Rand) float64 {
	if p < 1 {
		p = 1
	}
	if bytes < 0 {
		bytes = 0
	}
	rounds := float64(ceilLog2(p))
	var base float64
	switch kind {
	case Bcast:
		base = rounds * (m.LatencyUS + float64(bytes)/m.BytesPerUS)
	case Allreduce:
		base = 2 * rounds * (m.LatencyUS + float64(bytes)/m.BytesPerUS)
	case Allgather:
		// Ring-style: P-1 steps each moving one contribution.
		base = float64(p-1) * (m.LatencyUS + float64(bytes)/m.BytesPerUS)
	default: // Barrier
		base = rounds * m.LatencyUS
	}
	return base * m.noise(rng)
}

// ceilLog2 returns ceil(log2(p)) with ceilLog2(1) == 0.
func ceilLog2(p int) int {
	n, v := 0, 1
	for v < p {
		v <<= 1
		n++
	}
	return n
}
