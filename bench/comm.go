package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/mpi"
)

// commP16 is the comm_p16 workload: 16-rank worlds running the ghost,
// wildcard and collective bodies, worlds times per body and scheduler.
type commP16 struct {
	e *env
	// procs and worlds scale the pass; tests shrink them.
	procs, worlds int
	// reference holds, per body, the digest of every rank's final clock
	// and counters after a serial world: every world of the body must end
	// in that simulated state whatever the scheduler.
	reference map[string]string
}

func newCommP16(e *env) *commP16 { return &commP16{e: e, procs: 16, worlds: 50} }

// commBody is one rank program of the scheduler benchmarks.
type commBody struct {
	name string
	run  func(*mpi.Rank)
}

// The bodies are copied verbatim from the repository's bench_test.go
// (BenchmarkWorldRun), which a main package cannot import.
var bodies = []commBody{
	{"ghost", ghostCommBody},
	{"wildcard", wildcardBody},
	{"coll", collectiveBody},
}

func (c *commP16) worldConfig(mode mpi.SchedulerMode) mpi.WorldConfig {
	cfg := mpi.DefaultConfig()
	cfg.Procs = c.procs
	cfg.Seed = c.e.seed
	cfg.Sched = mode
	return cfg
}

// setup runs one serial world per body for the reference final states.
func (c *commP16) setup() error {
	c.reference = map[string]string{}
	for _, body := range bodies {
		w := mpi.NewWorld(c.worldConfig(mpi.Serial))
		if err := w.Run(body.run); err != nil {
			return fmt.Errorf("%s: %w", body.name, err)
		}
		c.reference[body.name] = worldPrint(w)
	}
	return nil
}

func (c *commP16) warm() error { return nil }

func (c *commP16) pass(int) (passResult, error) {
	var pr passResult
	t0 := now()
	for bi, body := range bodies {
		want := c.reference[body.name]
		pr.check(c.e.checkDigest("comm_p16/"+body.name, want), "%s: final clocks differ from the golden digest", body.name)
		for _, mode := range schedModes {
			cfg := c.worldConfig(mode)
			for i := 0; i < c.worlds; i++ {
				c.e.rec.push("mpi", body.name+"."+mode.String(), bi*len(schedModes)+int(mode)+1)
				t := now()
				w := mpi.NewWorld(cfg)
				err := w.Run(body.run)
				lat := since(t)
				c.e.rec.pop()
				pr.latMS = append(pr.latMS, lat*1e3)
				pr.check(err == nil && worldPrint(w) == want, "%s %s world %d: err %v, or final state differs from the serial reference", body.name, mode, i, err)
			}
		}
	}
	pr.wallS = since(t0)
	return pr, nil
}

// worldPrint digests every rank's final clock and counters.
func worldPrint(w *mpi.World) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range w.Procs() {
		put(math.Float64bits(p.Now()))
		c := p.Counters()
		put(c.FPOps)
		put(c.L2DCA)
		put(c.L2DCM)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// derived composes the pass from the per-world probes.
func (c *commP16) derived(m map[string]float64) error {
	var ms float64
	for _, body := range bodies {
		for _, mode := range schedModes {
			ms += m["mpi."+body.name+"."+mode.String()+".ms"]
		}
	}
	m["budget.predicted_s"] = float64(c.worlds) * ms / 1e3
	return nil
}

func (c *commP16) close() error { return nil }

// computeBody is a non-communicating compute segment: real euler kernel
// work (States + EFMFlux sweeps) charged to the rank's platform, with no
// MPI between start and finish.
func computeBody(r *mpi.Rank) {
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

// ghostCommBody is a ring halo exchange trading many small messages with
// only a sliver of compute between them, closed by a periodic Allreduce.
func ghostCommBody(r *mpi.Rank) {
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
			c.Allreduce(mpi.OpSum, sum)
		}
	}
}

// wildcardBody is the rollback-heavy workload: rank 0 drains a burst of
// wildcard receives from every peer; under the optimistic scheduler every
// wildcard match is a speculation the commit automaton must validate.
func wildcardBody(r *mpi.Rank) {
	c := r.Comm
	me, p := c.Rank(), c.Size()
	if me == 0 {
		buf := make([]float64, 32)
		for i := 0; i < (p-1)*16; i++ {
			c.Recv(mpi.AnySource, mpi.AnyTag, buf)
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

// collectiveBody is back-to-back Allreduce rounds (with periodic Bcasts)
// separated by slivers of skewed compute.
func collectiveBody(r *mpi.Rank) {
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
		res := c.Allreduce(mpi.OpSum, val)
		val[0] = res[0] * 0.5
		if step%8 == 7 {
			c.Bcast(0, buf)
		}
	}
}
