package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Allreduce(sum) over random per-rank vectors equals the serial
// fold, for any world size 2..5 and vector length 1..32.
func TestPropertyAllreduceMatchesSerialFold(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := int(pRaw%4) + 2
		n := int(nRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([][]float64, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			data[r] = make([]float64, n)
			for i := range data[r] {
				data[r][i] = math.Round(rng.Float64()*1000) / 16
				want[i] += data[r][i]
			}
		}
		cfg := testConfig(p)
		w := NewWorld(cfg)
		ok := true
		err := w.Run(func(rk *Rank) {
			got := rk.Comm.Allreduce(OpSum, data[rk.Rank()])
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: an all-to-all exchange delivers every payload intact for any
// tag assignment.
func TestPropertyAllToAllDelivery(t *testing.T) {
	f := func(seed int64) bool {
		const p = 3
		rng := rand.New(rand.NewSource(seed))
		payload := make([][][]float64, p) // [src][dst]
		for s := 0; s < p; s++ {
			payload[s] = make([][]float64, p)
			for d := 0; d < p; d++ {
				n := rng.Intn(64) + 1
				payload[s][d] = make([]float64, n)
				for i := range payload[s][d] {
					payload[s][d][i] = float64(s*1000+d*100) + rng.Float64()
				}
			}
		}
		cfg := testConfig(p)
		w := NewWorld(cfg)
		ok := true
		err := w.Run(func(rk *Rank) {
			me := rk.Rank()
			var reqs []*Request
			bufs := make([][]float64, p)
			for src := 0; src < p; src++ {
				if src == me {
					continue
				}
				bufs[src] = make([]float64, len(payload[src][me]))
				reqs = append(reqs, rk.Comm.Irecv(src, 5, bufs[src]))
			}
			for dst := 0; dst < p; dst++ {
				if dst != me {
					rk.Comm.Isend(dst, 5, payload[me][dst])
				}
			}
			for rk.Comm.Waitsome(reqs) != nil {
			}
			for src := 0; src < p; src++ {
				if src == me {
					continue
				}
				for i := range bufs[src] {
					if bufs[src][i] != payload[src][me][i] {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// randomPatternBody builds a deterministic random communication pattern in
// the style of TestPropertyAllToAllDelivery: every rank posts receives from
// all peers, computes a random amount, sends random payloads, drains with
// Waitsome recording the completion order, then closes with a reduction.
// All randomness is drawn from per-rank streams seeded by (seed, rank), so
// the pattern itself is identical across scheduler modes.
func randomPatternBody(seed int64, p int) func(r *Rank, log *[]string) {
	return func(r *Rank, log *[]string) {
		me := r.Rank()
		rng := rand.New(rand.NewSource(seed ^ int64(me)*0x9E3779B9))
		var reqs []*Request
		bufs := make([][]float64, p)
		for src := 0; src < p; src++ {
			if src == me {
				continue
			}
			bufs[src] = make([]float64, 64)
			reqs = append(reqs, r.Comm.Irecv(src, rng.Intn(3), bufs[src]))
		}
		r.Proc.Advance(rng.Float64() * 200)
		for dst := 0; dst < p; dst++ {
			if dst == me {
				continue
			}
			n := rng.Intn(63) + 1
			payload := make([]float64, n)
			for i := range payload {
				payload[i] = float64(me*1000) + rng.Float64()
			}
			// Tags cycle 0..2 on both ends; mismatches resolve through
			// later sends, exercising out-of-order matching.
			for tag := 0; tag < 3; tag++ {
				r.Comm.Isend(dst, tag, payload)
			}
			r.Proc.Advance(rng.Float64() * 40)
		}
		for {
			done := r.Comm.Waitsome(reqs)
			if done == nil {
				break
			}
			for _, i := range done {
				*log = append(*log, fmt.Sprintf("%d:%.6f@%.3f", i, reqs[i].buf[0], r.Proc.Now()))
			}
		}
		sum := r.Comm.Allreduce(OpSum, []float64{r.Proc.Now()})
		*log = append(*log, fmt.Sprintf("sum=%.6f", sum[0]))
	}
}

// Property: any random communication pattern yields bit-identical final
// clocks, profiles and message completion orders under the serial, the
// conservative parallel and the optimistic scheduler — the tentpole
// determinism guarantee.
func TestPropertySchedulerEquivalence(t *testing.T) {
	f := func(seed int64, pRaw, capRaw uint8) bool {
		p := int(pRaw%4) + 2
		body := randomPatternBody(seed, p)
		serialCfg := testConfig(p)
		serialCfg.Net.NoiseSigma = 0.35
		serial := runTraced(t, serialCfg, body)
		for _, mode := range []SchedulerMode{ConservativeParallel, OptimisticParallel} {
			parCfg := serialCfg
			parCfg.Sched = mode
			parCfg.MaxParallelRanks = int(capRaw % 4) // 0 (uncapped) .. 3
			par := runTraced(t, parCfg, body)
			for r := range serial.clocks {
				if serial.clocks[r] != par.clocks[r] ||
					serial.counters[r] != par.counters[r] ||
					!bytes.Equal(serial.profiles[r], par.profiles[r]) ||
					fmt.Sprint(serial.log[r]) != fmt.Sprint(par.log[r]) {
					t.Logf("seed %d p %d sched %v rank %d diverged:\nserial %v\n%v     %v",
						seed, p, mode, r, serial.log[r], mode, par.log[r])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// wildcardPatternBody is randomPatternBody's adversarial cousin for the
// optimistic scheduler: receives use MPI_ANY_SOURCE (and mixed tags), so
// every match is speculative and the commit automaton must arbitrate the
// order. Random compute skews make the real-time publication order diverge
// hard from the virtual-time serial order, forcing mispredictions.
func wildcardPatternBody(seed int64, p int) func(r *Rank, log *[]string) {
	return func(r *Rank, log *[]string) {
		me := r.Rank()
		rng := rand.New(rand.NewSource(seed ^ int64(me)*0x5bd1e995))
		if me == 0 {
			// Rank 0 drains (p-1)*3 wildcard receives one at a time plus a
			// batch of wildcard Irecvs via Waitsome.
			buf := make([]float64, 64)
			for i := 0; i < (p-1)*2; i++ {
				n := r.Comm.Recv(AnySource, AnyTag, buf)
				*log = append(*log, fmt.Sprintf("recv n=%d v=%.6f@%.3f", n, buf[0], r.Proc.Now()))
			}
			var reqs []*Request
			bufs := make([][]float64, p-1)
			for i := range bufs {
				bufs[i] = make([]float64, 64)
				reqs = append(reqs, r.Comm.Irecv(AnySource, AnyTag, bufs[i]))
			}
			for {
				done := r.Comm.Waitsome(reqs)
				if done == nil {
					break
				}
				for _, i := range done {
					*log = append(*log, fmt.Sprintf("some %d=%.6f@%.3f", i, bufs[i][0], r.Proc.Now()))
				}
			}
		} else {
			for i := 0; i < 3; i++ {
				r.Proc.Advance(rng.Float64() * 300)
				n := rng.Intn(32) + 1
				payload := make([]float64, n)
				for j := range payload {
					payload[j] = float64(me*1000+i*10) + rng.Float64()
				}
				r.Comm.Send(0, rng.Intn(3), payload)
			}
		}
		sum := r.Comm.Allreduce(OpSum, []float64{r.Proc.Now()})
		*log = append(*log, fmt.Sprintf("sum=%.6f", sum[0]))
	}
}

// Property: wildcard-heavy patterns — where the optimistic scheduler must
// speculate every match — still produce bit-identical results in all three
// modes, for random seeds and rank caps.
func TestPropertyWildcardSchedulerEquivalence(t *testing.T) {
	f := func(seed int64, pRaw, capRaw uint8) bool {
		p := int(pRaw%4) + 2
		body := wildcardPatternBody(seed, p)
		serialCfg := testConfig(p)
		serialCfg.Net.NoiseSigma = 0.35
		serial := runTraced(t, serialCfg, body)
		for _, mode := range []SchedulerMode{ConservativeParallel, OptimisticParallel} {
			cfg := serialCfg.WithScheduler(mode, int(capRaw%4))
			par := runTraced(t, cfg, body)
			for r := range serial.clocks {
				if serial.clocks[r] != par.clocks[r] ||
					serial.counters[r] != par.counters[r] ||
					!bytes.Equal(serial.profiles[r], par.profiles[r]) ||
					fmt.Sprint(serial.log[r]) != fmt.Sprint(par.log[r]) {
					t.Logf("seed %d p %d sched %v rank %d diverged", seed, p, mode, r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDupChainIsolation(t *testing.T) {
	// Nested duplicates each carry an isolated message space.
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		d1 := r.Comm.Dup()
		d2 := d1.Dup()
		switch r.Rank() {
		case 0:
			r.Comm.Send(1, 1, []float64{0})
			d1.Send(1, 1, []float64{1})
			d2.Send(1, 1, []float64{2})
		case 1:
			buf := make([]float64, 1)
			d2.Recv(0, 1, buf)
			if buf[0] != 2 {
				panic("d2 crossed message spaces")
			}
			d1.Recv(0, 1, buf)
			if buf[0] != 1 {
				panic("d1 crossed message spaces")
			}
			r.Comm.Recv(0, 1, buf)
			if buf[0] != 0 {
				panic("world crossed message spaces")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManySmallMessagesStress(t *testing.T) {
	// A thousand interleaved messages per pair survive with correct
	// ordering and no deadlock.
	const n = 1000
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				r.Comm.Send(1, i%7, []float64{float64(i)})
			}
		} else {
			seen := make(map[int][]float64, 7)
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				tag := i % 7
				r.Comm.Recv(0, tag, buf)
				seen[tag] = append(seen[tag], buf[0])
			}
			// Per-tag FIFO ordering must hold.
			for tag, vals := range seen {
				for i := 1; i < len(vals); i++ {
					if vals[i] <= vals[i-1] {
						panic("per-tag FIFO violated")
					}
				}
				_ = tag
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAllOpsAgainstFold(t *testing.T) {
	ops := []Op{OpSum, OpMax}
	folds := []func(a, b float64) float64{
		func(a, b float64) float64 { return a + b },
		math.Max,
	}
	in := [][]float64{{2, -1}, {5, 3}, {-4, 0.5}}
	for k, op := range ops {
		w := NewWorld(testConfig(3))
		want0 := in[0][0]
		want1 := in[0][1]
		for r := 1; r < 3; r++ {
			want0 = folds[k](want0, in[r][0])
			want1 = folds[k](want1, in[r][1])
		}
		err := w.Run(func(r *Rank) {
			got := r.Comm.Allreduce(op, in[r.Rank()])
			if got[0] != want0 || got[1] != want1 {
				panic("reduction mismatch")
			}
		})
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
	}
}

func TestUnknownOpPanics(t *testing.T) {
	// Two ranks so the reduction actually applies the operator.
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		r.Comm.Allreduce(Op(99), []float64{1})
	})
	if err == nil {
		t.Fatal("unknown op accepted")
	}
}
