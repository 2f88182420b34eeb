package mpi

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/euler"
)

// The four 16-rank bodies the scheduler is measured on (bench's comm_p16
// times its own copies of them): one per cost the modes trade against each
// other.

// computeBody is a non-communicating compute segment: real euler kernel
// work (States + EFMFlux sweeps) charged to the rank's platform, with no
// MPI between start and finish. The parallel schedulers' rank concurrency
// pays off linearly in available cores here; on a 1-core host all modes tie.
func computeBody(r *Rank) {
	proc := r.Proc
	const nx, ny = 96, 48
	blk := euler.NewBlock(proc, nx, ny, 2)
	pr := euler.DefaultShockInterface()
	pr.InitBlock(blk, 0, 0, pr.Lx/nx, pr.Ly/ny)
	blk.FillBoundary(true, true, true, true)
	qL := euler.NewEdgeField(proc, nx, ny, euler.X)
	qR := euler.NewEdgeField(proc, nx, ny, euler.X)
	fl := euler.NewEdgeField(proc, nx, ny, euler.X)
	for i := 0; i < 20; i++ {
		euler.States(proc, blk, euler.X, qL, qR)
		euler.EFMFlux(proc, qL, qR, fl)
	}
}

// ghostBody is the comm-heavy counterpart: a ring halo exchange trading
// many small messages with only a sliver of compute between them, closed by
// a periodic Allreduce. Every blocking Recv is an order-sensitive shared op
// that serializes rank progress under the conservative commit token; the
// optimistic scheduler's pipelined specific-source receive completes the
// moment its (already published) message is found.
func ghostBody(r *Rank) {
	c := r.Comm
	me, p := c.Rank(), c.Size()
	left, right := (me+p-1)%p, (me+1)%p
	halo := make([]float64, 64)
	for i := range halo {
		halo[i] = float64(me*64 + i)
	}
	recvL := make([]float64, 64)
	recvR := make([]float64, 64)
	sum := []float64{0}
	for step := 0; step < 48; step++ {
		c.Isend(left, step, halo)
		c.Isend(right, step, halo)
		c.Recv(left, step, recvL)
		c.Recv(right, step, recvR)
		acc := 0.0
		for k := 0; k < 4000; k++ {
			acc += recvL[k%64] - recvR[k%64]*1e-9
		}
		sum[0] += acc
		r.Proc.ChargeFlops(4000)
		r.Proc.Advance(20)
		if step%16 == 15 {
			c.Allreduce(OpSum, sum)
		}
	}
}

// wildcardBody is the rollback-heavy workload: rank 0 drains a burst of
// wildcard receives from every peer, and under the optimistic scheduler
// every wildcard match is a speculation the commit automaton must validate
// against the serial arrival order. Skewed sender clocks make mismatches
// routine, so this is the body that drives conflicts and rollbacks.
func wildcardBody(r *Rank) {
	c := r.Comm
	me, p := c.Rank(), c.Size()
	if me == 0 {
		buf := make([]float64, 32)
		for i := 0; i < (p-1)*16; i++ {
			c.Recv(AnySource, AnyTag, buf)
		}
	} else {
		payload := make([]float64, 32)
		for i := range payload {
			payload[i] = float64(me*32 + i)
		}
		for i := 0; i < 16; i++ {
			r.Proc.Advance(float64((me*7+i*13)%29) * 10)
			c.Send(0, i%4, payload)
		}
	}
	c.Barrier()
}

// collBody is the collective-heavy workload: back-to-back Allreduce rounds
// (with periodic Bcasts) separated by slivers of skewed compute — what the
// speculative-collective path targets: a rank whose peers have all
// published their contributions computes the result itself and keeps
// running instead of parking on the commit token.
func collBody(r *Rank) {
	c := r.Comm
	me := c.Rank()
	val := []float64{float64(me)}
	buf := make([]float64, 8)
	for i := range buf {
		buf[i] = float64(me*8 + i)
	}
	for step := 0; step < 64; step++ {
		r.Proc.ChargeFlops(500)
		r.Proc.Advance(float64((me*11 + step*5) % 17))
		res := c.Allreduce(OpSum, val)
		val[0] = res[0] * 0.5
		if step%8 == 7 {
			c.Bcast(0, buf)
		}
	}
}

var schedModes = []SchedulerMode{Serial, ConservativeParallel, OptimisticParallel}

// BenchmarkWorldRun times one 16-rank world per body and scheduler. Virtual
// results are bit-identical by design; host time is the point. The opt arms
// report the speculation counters of their last world.
func BenchmarkWorldRun(b *testing.B) {
	for _, body := range []struct {
		name string
		run  func(*Rank)
	}{{"compute", computeBody}, {"ghost", ghostBody}, {"wildcard", wildcardBody}, {"coll", collBody}} {
		for _, mode := range schedModes {
			b.Run(fmt.Sprintf("%s/p16/%s", body.name, mode), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Procs = 16
				cfg.Sched = mode
				b.ReportAllocs()
				var spec SpecStats
				for b.Loop() {
					w := NewWorld(cfg)
					if err := w.Run(body.run); err != nil {
						b.Fatal(err)
					}
					spec = w.SpecStats()
				}
				if mode == OptimisticParallel {
					b.ReportMetric(float64(spec.PipelinedOps), "pipelined-ops")
					b.ReportMetric(float64(spec.Rollbacks), "rollbacks")
					b.ReportMetric(float64(spec.SpecCollHits), "spec-coll-hits")
				}
			})
		}
	}
}

// TestWorldRunAllocationBudget pins what one 16-rank world may allocate,
// per communication body and scheduler, so that a per-event cost that was
// removed cannot come back unnoticed: a closure per MPI entry or per
// blocking call, three vectors per TAU start/stop pair, a reallocated
// mailbox per match, a request per Isend (the ghost worlds made 5,575
// allocations serial and 5,876 opt), a cache directory cleared per rank at
// construction (64 kB x 16) or copied per speculation (the optimistic
// wildcard world allocated 17.9 MB), a message header and payload per send
// and an event per optimistic MPI call (ghost made 4,037 allocations and
// 1.05 MB serial, 4,346 and 2.71 MB opt; wildcard opt 3,130 and 0.81 MB,
// coll opt 1.10 MB), trace arguments boxed for an unobserved world
// (1,250 of wildcard opt's allocations), or a copy of each collective
// contribution with a table per generation and a result list per
// completion (coll made 2,861 allocations and 201 kB serial and par).
// Ceilings are about a quarter above the highest of three runs at
// GOMAXPROCS 1, 2 and 4 on 2 cores, and each is below what the same world
// allocated before those costs were removed; a cell is the cheapest of
// three worlds, so a GC cycle or a late goroutine start in one of them
// does not fail the test. An opt world's messages and events are recycled
// only once the commit automaton is past them, so its count grows with
// how far ranks run ahead. The readings, with TAU timers reading only the
// clock and opt's payloads cut from shared chunks: ghost 785-799
// allocations and 193 kB serial and par, opt 813-853 and up to 475 kB;
// wildcard 803-814 and 218 kB, opt 580-584 and 413 kB; coll 1,581 and
// 130 kB, opt 2,805 and 270 kB.
func TestWorldRunAllocationBudget(t *testing.T) {
	type budget struct{ allocs, bytes uint64 }
	bodies := []struct {
		name    string
		run     func(*Rank)
		ceiling map[SchedulerMode]budget
	}{
		{"ghost", ghostBody, map[SchedulerMode]budget{
			Serial: {1000, 250 << 10}, ConservativeParallel: {1000, 250 << 10}, OptimisticParallel: {1075, 600 << 10}}},
		{"wildcard", wildcardBody, map[SchedulerMode]budget{
			Serial: {1025, 275 << 10}, ConservativeParallel: {1025, 275 << 10}, OptimisticParallel: {740, 520 << 10}}},
		{"coll", collBody, map[SchedulerMode]budget{
			Serial: {2000, 165 << 10}, ConservativeParallel: {2000, 165 << 10}, OptimisticParallel: {3500, 340 << 10}}},
	}
	for _, body := range bodies {
		got := map[SchedulerMode]budget{}
		for mode, ceiling := range body.ceiling {
			cfg := DefaultConfig()
			cfg.Procs = 16
			cfg.Sched = mode
			best := budget{^uint64(0), ^uint64(0)}
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := NewWorld(cfg).Run(body.run); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				best.allocs = min(best.allocs, after.Mallocs-before.Mallocs)
				best.bytes = min(best.bytes, after.TotalAlloc-before.TotalAlloc)
			}
			got[mode] = best
			t.Logf("%s/p16/%s: %d allocations, %d bytes per world", body.name, mode, best.allocs, best.bytes)
			if best.allocs > ceiling.allocs || best.bytes > ceiling.bytes {
				t.Errorf("%s/p16/%s: %d allocations, %d bytes per world; budget %d and %d",
					body.name, mode, best.allocs, best.bytes, ceiling.allocs, ceiling.bytes)
			}
		}
		// The optimistic scheduler records an event per MPI call on top of
		// what the call itself allocates; on the ghost exchange, the body it
		// exists for, that may cost a quarter more allocations, not a half.
		if s, o := got[Serial].allocs, got[OptimisticParallel].allocs; body.name == "ghost" && 4*o > 5*s {
			t.Errorf("ghost/p16: opt makes %d allocations per world, serial %d: more than 1.25x", o, s)
		}
	}
}

// TestWaitPolicyCostsTheSame is the paper's Waitsome-vs-Waitall ablation as
// an assertion: draining an imbalanced ghost exchange one completion at a
// time ends, in virtual time, within 1% of draining it in bulk (measured
// ratio 1.001). The paper's choice of Waitsome is about the overlap it
// allows, not about what the drain itself costs.
func TestWaitPolicyCostsTheSame(t *testing.T) {
	end := func(some bool) float64 {
		cfg := DefaultConfig()
		cfg.Net.NoiseSigma = 0
		var t0 float64
		err := NewWorld(cfg).Run(func(r *Rank) {
			me := r.Rank()
			r.Proc.Advance(float64(me) * 300)
			var reqs []*Request
			for peer := 0; peer < 3; peer++ {
				if peer != me {
					reqs = append(reqs, r.Comm.Irecv(peer, 0, make([]float64, 512)))
				}
			}
			payload := make([]float64, 512)
			for peer := 0; peer < 3; peer++ {
				if peer != me {
					r.Comm.Isend(peer, 0, payload)
				}
			}
			if some {
				for r.Comm.Waitsome(reqs) != nil {
				}
			} else {
				r.Comm.Waitall(reqs)
			}
			if me == 0 {
				t0 = r.Proc.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return t0
	}
	some, all := end(true), end(false)
	if ratio := some / all; math.Abs(ratio-1) > 0.01 {
		t.Errorf("Waitsome drain ends at %.1f us, Waitall at %.1f us: ratio %.4f, want within 1%% of 1", some, all, ratio)
	}
}
