package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// This file is the wildcard rollback stress grid: a
// property-style corpus sweeping rank count x wildcard density under the
// optimistic scheduler with a deliberately tight speculation window, so
// the rollback, re-execution and window-stall machinery runs constantly
// while byte-identity to the serial scheduler is asserted at every grid
// point. The grid trims itself under the race detector (raceEnabled);
// CI's regular test job runs it in full.

// wildcardStressBody builds a hub-and-spokes pattern whose wildcard share
// is tunable: every peer sends `rounds` messages to rank 0, a
// density-controlled fraction of them tagged into a wildcard pool (tag 0,
// drained by Recv(AnySource, ...)) and the rest tagged per-sequence for
// specific-source receives. The two tag classes cannot steal from each
// other, so every density is deadlock-free, while the wildcard drains are
// exactly the speculative matches the commit automaton must validate —
// and roll back — against serial arrival order. Skewed sender clocks plus
// network noise make conflicting speculation routine, and a closing
// Allreduce exercises the speculative-collective path in the same run.
// hold, when non-nil, runs on rank 0 before its first MPI call: rank 0 is
// the first grant in serial order, so the commit frontier cannot move
// while it is held.
func wildcardStressBody(seed int64, p int, density float64, hold func()) func(r *Rank, log *[]string) {
	const rounds = 6
	wc := int(density * rounds)
	return func(r *Rank, log *[]string) {
		me := r.Rank()
		rng := rand.New(rand.NewSource(seed ^ int64(me)*0x9e3779b9))
		if me == 0 {
			buf := make([]float64, 16)
			// Interleave the wildcard pool and the specific receives in a
			// seed-derived (scheduler-independent) order.
			type rx struct{ src, tag int }
			var plan []rx
			for s := 1; s < p; s++ {
				for j := 0; j < wc; j++ {
					plan = append(plan, rx{AnySource, 0})
				}
				for j := wc; j < rounds; j++ {
					plan = append(plan, rx{s, 1000 + j})
				}
			}
			rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
			if hold != nil {
				hold()
			}
			for _, rc := range plan {
				n := r.Comm.Recv(rc.src, rc.tag, buf)
				*log = append(*log, fmt.Sprintf("n=%d v=%.6f@%.3f", n, buf[0], r.Proc.Now()))
			}
		} else {
			for j := 0; j < rounds; j++ {
				r.Proc.Advance(rng.Float64() * 250)
				k := rng.Intn(12) + 1
				payload := make([]float64, k)
				for i := range payload {
					payload[i] = float64(me*1000+j*10) + rng.Float64()
				}
				tag := 0
				if j >= wc {
					tag = 1000 + j
				}
				r.Comm.Send(0, tag, payload)
			}
		}
		sum := r.Comm.Allreduce(OpSum, []float64{r.Proc.Now()})
		*log = append(*log, fmt.Sprintf("sum=%.6f", sum[0]))
	}
}

// TestWildcardRollbackStressGrid sweeps rank count x wildcard density and
// asserts, at every grid point, that the optimistic scheduler under a
// tight window reproduces the serial trace bit for bit and that ranks do
// park on the window (the only test that fails without windowWaitLocked).
// The logged conflict and rollback rates document how speculation failure
// scales with both axes.
func TestWildcardRollbackStressGrid(t *testing.T) {
	ranks := []int{2, 4, 8}
	densities := []float64{0, 0.5, 1}
	seeds := []int64{1, 7, 40}
	if raceEnabled {
		// The detector multiplies runtime ~10x; keep one column of each
		// axis so the -race job still crosses every code path.
		ranks = []int{4}
		densities = []float64{1}
		seeds = seeds[:1]
	}
	for _, p := range ranks {
		for _, density := range densities {
			p, density := p, density
			t.Run(fmt.Sprintf("p%d/wc%.0f%%", p, density*100), func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					cfg := testConfig(p)
					cfg.Net.NoiseSigma = 0.35
					serial := runTraced(t, cfg, wildcardStressBody(seed, p, density, nil))

					opt := cfg
					opt.Sched = OptimisticParallel
					w := NewWorld(opt)
					// Far below specWindow, so streams hit the bound instead
					// of letting speculation run away.
					w.o.win = 4
					// Every peer records 7 events, so holding the frontier
					// until all of them have parked makes each one hit the
					// window (or, were the bound gone, reach the Allreduce
					// with no stall counted).
					peersParked := func() {
						for {
							w.mu.Lock()
							parked := !slices.Contains(w.o.parked[1:], false)
							w.mu.Unlock()
							if parked {
								return
							}
							runtime.Gosched()
						}
					}
					tr := traceWorld(t, w, wildcardStressBody(seed, p, density, peersParked))
					assertTracesEqual(t, serial, tr)

					stats := w.SpecStats()
					if stats.WindowStalls == 0 {
						t.Errorf("seed=%d: no rank parked on a %d-event window", seed, w.o.win)
					}
					ops := stats.SpeculatedOps + stats.PipelinedOps
					if ops == 0 {
						ops = 1
					}
					t.Logf("seed=%d p=%d density=%.2f: spec=%d pipelined=%d conflicts=%d (%.1f%%) rollbacks=%d stalls=%d",
						seed, p, density, stats.SpeculatedOps, stats.PipelinedOps,
						stats.Conflicts, float64(stats.Conflicts)/float64(ops)*100,
						stats.Rollbacks, stats.WindowStalls)
				}
			})
		}
	}
}
