package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tau"
)

// parConfig returns testConfig with the conservative parallel scheduler.
func parConfig(p int) WorldConfig {
	cfg := testConfig(p)
	cfg.Sched = ConservativeParallel
	return cfg
}

// optConfig returns testConfig with the optimistic (Time Warp) scheduler.
func optConfig(p int) WorldConfig {
	cfg := testConfig(p)
	cfg.Sched = OptimisticParallel
	return cfg
}

// worldTrace is everything a scheduler-equivalence test compares: the
// per-rank final clocks and counters, the rendered TAU profiles
// (bit-for-bit), and an application-level receive log.
type worldTrace struct {
	clocks   []float64
	counters []string
	profiles [][]byte
	log      [][]string
}

// runTraced runs body under cfg and snapshots the world. log records one
// slice of strings per rank, appended by the body (rank-local).
func runTraced(t *testing.T, cfg WorldConfig, body func(r *Rank, log *[]string)) worldTrace {
	t.Helper()
	return traceWorld(t, NewWorld(cfg), body)
}

// traceWorld is runTraced over a world the caller built (and may have
// adjusted through unexported fields).
func traceWorld(t *testing.T, w *World, body func(r *Rank, log *[]string)) worldTrace {
	t.Helper()
	tr := worldTrace{log: make([][]string, w.cfg.Procs)}
	err := w.Run(func(r *Rank) {
		body(r, &tr.log[r.Rank()])
	})
	if err != nil {
		t.Fatalf("sched=%v: %v", w.cfg.Sched, err)
	}
	for _, r := range w.Ranks() {
		tr.clocks = append(tr.clocks, r.Proc.Now())
		tr.counters = append(tr.counters, fmt.Sprintf("%+v", r.Proc.Counters()))
		tr.profiles = append(tr.profiles, renderProfile(t, r.Prof))
	}
	return tr
}

// renderProfile writes a finished profile's timers in registration order:
// name, group, calls, and the float bits of inclusive and exclusive wall
// time, one timer a line.
func renderProfile(t *testing.T, p *tau.Profile) []byte {
	t.Helper()
	timers, err := p.Timers()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tm := range timers {
		fmt.Fprintf(&buf, "%s\t%s\t%d\t%016x\t%016x\n", tm.Name, tm.Group, tm.Calls,
			math.Float64bits(tm.InclUS), math.Float64bits(tm.ExclUS))
	}
	return buf.Bytes()
}

// assertTracesEqual compares a serial and a parallel trace bit for bit.
func assertTracesEqual(t *testing.T, serial, par worldTrace) {
	t.Helper()
	for r := range serial.clocks {
		if serial.clocks[r] != par.clocks[r] {
			t.Errorf("rank %d: clock %v (serial) != %v (parallel)", r, serial.clocks[r], par.clocks[r])
		}
		if serial.counters[r] != par.counters[r] {
			t.Errorf("rank %d: counters %s (serial) != %s (parallel)", r, serial.counters[r], par.counters[r])
		}
		if !bytes.Equal(serial.profiles[r], par.profiles[r]) {
			t.Errorf("rank %d: rendered TAU profile differs between schedulers", r)
		}
		if fmt.Sprint(serial.log[r]) != fmt.Sprint(par.log[r]) {
			t.Errorf("rank %d: receive log differs:\nserial:   %v\nparallel: %v", r, serial.log[r], par.log[r])
		}
	}
}

// bothScheds runs the same body under the serial, conservative parallel and
// optimistic schedulers and requires bit-identical traces.
func bothScheds(t *testing.T, p int, body func(r *Rank, log *[]string)) {
	t.Helper()
	serial := runTraced(t, testConfig(p), body)
	assertTracesEqual(t, serial, runTraced(t, parConfig(p), body))
	assertTracesEqual(t, serial, runTraced(t, optConfig(p), body))
}

// TestParallelMatchesSerialPointToPoint covers the ghost-exchange shape:
// every rank posts receives from all peers, sends to all peers, and drains
// with Waitsome — under network noise, with per-rank compute skew.
func TestParallelMatchesSerialPointToPoint(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(p)
			cfg.Net.NoiseSigma = 0.35 // exercise the per-rank noise RNG too
			body := func(r *Rank, log *[]string) {
				me := r.Rank()
				r.Proc.Advance(float64(me*37 + 11))
				var reqs []*Request
				bufs := make([][]float64, p)
				for peer := 0; peer < p; peer++ {
					if peer == me {
						continue
					}
					bufs[peer] = make([]float64, 8)
					reqs = append(reqs, r.Comm.Irecv(peer, 3, bufs[peer]))
				}
				payload := make([]float64, 8)
				for i := range payload {
					payload[i] = float64(me*100 + i)
				}
				for peer := 0; peer < p; peer++ {
					if peer != me {
						r.Comm.Isend(peer, 3, payload)
					}
				}
				for {
					done := r.Comm.Waitsome(reqs)
					if done == nil {
						break
					}
					for _, i := range done {
						*log = append(*log, fmt.Sprintf("req%d@%.3f=%g", i, r.Proc.Now(), reqs[i].buf[0]))
					}
				}
			}
			serial := runTraced(t, cfg, body)
			par := cfg
			par.Sched = ConservativeParallel
			assertTracesEqual(t, serial, runTraced(t, par, body))
			opt := cfg
			opt.Sched = OptimisticParallel
			assertTracesEqual(t, serial, runTraced(t, opt, body))
		})
	}
}

// TestParallelMatchesSerialCollectives mixes collectives, communicator
// duplication and blocking point-to-point with compute between events.
func TestParallelMatchesSerialCollectives(t *testing.T) {
	t.Parallel()
	bothScheds(t, 4, func(r *Rank, log *[]string) {
		me := r.Rank()
		r.Comm.Init()
		r.Proc.Advance(float64(100 - me*13))
		sum := r.Comm.Allreduce(OpSum, []float64{float64(me), 1})
		*log = append(*log, fmt.Sprintf("sum=%v", sum))
		d := r.Comm.Dup()
		if me == 0 {
			d.Send(3, 9, []float64{42})
		}
		if me == 3 {
			buf := make([]float64, 1)
			d.Recv(AnySource, AnyTag, buf)
			*log = append(*log, fmt.Sprintf("recv=%v@%.3f", buf, r.Proc.Now()))
		}
		r.Comm.Barrier()
		got := r.Comm.Allgather([]float64{float64(me * me)})
		*log = append(*log, fmt.Sprintf("gather=%v", got))
		r.Comm.Finalize()
	})
}

// TestParallelMatchesSerialAnySourceOrder pins the order-sensitive case:
// wildcard receives must match messages in the exact order the serial
// scheduler enqueues them, even though parallel senders post concurrently.
func TestParallelMatchesSerialAnySourceOrder(t *testing.T) {
	t.Parallel()
	bothScheds(t, 4, func(r *Rank, log *[]string) {
		me := r.Rank()
		if me == 0 {
			buf := make([]float64, 1)
			for i := 0; i < 9; i++ {
				r.Comm.Recv(AnySource, AnyTag, buf)
				*log = append(*log, fmt.Sprintf("%g@%.3f", buf[0], r.Proc.Now()))
			}
			return
		}
		// Different compute skews so senders hit their sends at different
		// virtual times and in a nontrivial token order.
		rng := rand.New(rand.NewSource(int64(me)))
		for i := 0; i < 3; i++ {
			r.Proc.Advance(rng.Float64() * 50)
			r.Comm.Send(0, me, []float64{float64(me*10 + i)})
		}
	})
}

// TestParallelMaxParallelRanks caps concurrency without changing results.
func TestParallelMaxParallelRanks(t *testing.T) {
	t.Parallel()
	body := func(r *Rank, log *[]string) {
		r.Proc.Advance(float64(r.Rank() + 1))
		got := r.Comm.Allreduce(OpMax, []float64{float64(r.Rank())})
		*log = append(*log, fmt.Sprintf("%v", got))
	}
	serial := runTraced(t, testConfig(5), body)
	for _, cap := range []int{1, 2, 16} {
		for _, mode := range []SchedulerMode{ConservativeParallel, OptimisticParallel} {
			cfg := testConfig(5).WithScheduler(mode, cap)
			assertTracesEqual(t, serial, runTraced(t, cfg, body))
		}
	}
}

// TestMaxParallelRanksBoundsComputeSegments pins doc.go's "one world uses
// one core": between two MPI calls a rank's body runs outside the
// scheduler, and at most one rank at a time may be there under Serial, at
// most N under a cap of N.
func TestMaxParallelRanksBoundsComputeSegments(t *testing.T) {
	for _, tok := range []string{"serial", "par1", "par2", "par3", "opt1", "opt2"} {
		t.Run(tok, func(t *testing.T) {
			t.Parallel()
			mode, n, err := ParseSched(tok)
			if err != nil {
				t.Fatal(err)
			}
			limit := int32(max(n, 1))
			var computing, peak atomic.Int32
			compute := func() {
				now := computing.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				for i := 0; i < 10; i++ {
					runtime.Gosched()
				}
				computing.Add(-1)
			}
			err = NewWorld(testConfig(16).WithScheduler(mode, n)).Run(func(r *Rank) {
				c := r.Comm
				me, p := c.Rank(), c.Size()
				buf := make([]float64, 1)
				for step := 0; step < 8; step++ {
					compute()
					c.Isend((me+1)%p, step, []float64{float64(me)})
					compute()
					c.Recv((me+p-1)%p, step, buf)
					if step%4 == 3 {
						compute()
						c.Allreduce(OpSum, buf)
					}
				}
				compute()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got > limit {
				t.Errorf("%d ranks computed at once, want at most %d", got, limit)
			}
		})
	}
}

// TestDeadlockDiagnosticsBothModes asserts that a mismatched send/recv
// pair produces the extended diagnostic — per-rank state and the pending
// lookahead horizon — instead of hanging, under both schedulers.
func TestDeadlockDiagnosticsBothModes(t *testing.T) {
	for _, cfg := range []WorldConfig{testConfig(3), parConfig(3), optConfig(3)} {
		cfg := cfg
		t.Run(cfg.Sched.String(), func(t *testing.T) {
			t.Parallel()
			w := NewWorld(cfg)
			err := w.Run(func(r *Rank) {
				switch r.Rank() {
				case 0:
					buf := make([]float64, 1)
					r.Comm.Recv(1, 42, buf) // never sent with this tag
				case 1:
					r.Comm.Send(0, 7, []float64{1}) // mismatched tag
				}
			})
			if err == nil {
				t.Fatal("mismatched send/recv did not error")
			}
			for _, want := range []string{
				"deadlock",
				"MPI_Recv(src=1, tag=42) on comm 0",
				"world state at deadlock:",
				"rank 1: done",
				"rank 2: done",
				"undelivered message(s)",
				"pending lookahead horizon",
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("diagnostic missing %q:\n%v", want, err)
				}
			}
		})
	}
}

// TestDeadlockInCollectiveDiagnostics names the collective a rank is stuck
// in when the cohort never completes.
func TestDeadlockInCollectiveDiagnostics(t *testing.T) {
	for _, cfg := range []WorldConfig{testConfig(2), parConfig(2), optConfig(2)} {
		cfg := cfg
		t.Run(cfg.Sched.String(), func(t *testing.T) {
			t.Parallel()
			w := NewWorld(cfg)
			err := w.Run(func(r *Rank) {
				if r.Rank() == 0 {
					r.Comm.Barrier() // rank 1 never joins
				}
			})
			if err == nil || !strings.Contains(err.Error(), "MPI_Barrier on comm 0") {
				t.Fatalf("expected barrier deadlock diagnostic, got %v", err)
			}
		})
	}
}

// TestValidateRejectsInvalidConfig covers the new early validation: bad
// scheduler configs fail with a clear error at construction, not a late
// panic mid-run.
func TestValidateRejectsInvalidConfig(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*WorldConfig)
		want string
	}{
		{"procs", func(c *WorldConfig) { c.Procs = 0 }, "Procs 0"},
		{"rankcap", func(c *WorldConfig) { c.MaxParallelRanks = -2 }, "MaxParallelRanks -2"},
		{"mode", func(c *WorldConfig) { c.Sched = SchedulerMode(9) }, "scheduler mode 9"},
		{"zero clock", func(c *WorldConfig) { c.CPU.ClockGHz = 0 }, "CPU.ClockGHz 0"},
		{"negative clock", func(c *WorldConfig) { c.CPU.ClockGHz = -2.8 }, "CPU.ClockGHz -2.8"},
		{"NaN clock", func(c *WorldConfig) { c.CPU.ClockGHz = math.NaN() }, "CPU.ClockGHz NaN"},
		{"no cache", func(c *WorldConfig) { c.Cache.SizeBytes = 0 }, "non-positive geometry"},
		{"cache sets", func(c *WorldConfig) { c.Cache.SizeBytes = 100 << 10 }, "set count 200 not a power of two"},
	}
	for _, tc := range cases {
		cfg := testConfig(2)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		func() {
			defer func() {
				e := recover()
				if e == nil || !strings.Contains(fmt.Sprint(e), tc.want) {
					t.Errorf("%s: NewWorld panic = %v, want %q", tc.name, e, tc.want)
				}
			}()
			NewWorld(cfg)
		}()
	}
	if err := testConfig(3).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := parConfig(3).Validate(); err != nil {
		t.Errorf("valid parallel config rejected: %v", err)
	}
}

// TestParseSchedRoundTrip pins the one scheduler token grammar: ParseSched
// accepts exactly what FormatSched produces.
func TestParseSchedRoundTrip(t *testing.T) {
	t.Parallel()
	for tok, want := range map[string]struct {
		mode SchedulerMode
		cap  int
	}{
		"serial": {Serial, 0},
		"par":    {ConservativeParallel, 0},
		"par4":   {ConservativeParallel, 4},
		"opt":    {OptimisticParallel, 0},
		"opt8":   {OptimisticParallel, 8},
	} {
		mode, cap, err := ParseSched(tok)
		if err != nil || mode != want.mode || cap != want.cap {
			t.Errorf("ParseSched(%q) = (%v, %d, %v), want (%v, %d)", tok, mode, cap, err, want.mode, want.cap)
		}
		if got := FormatSched(mode, cap); got != tok {
			t.Errorf("FormatSched(ParseSched(%q)) = %q", tok, got)
		}
		if cfg := testConfig(3).WithScheduler(mode, cap); cfg.Sched != mode || cfg.MaxParallelRanks != cap {
			t.Errorf("%q: WithScheduler gave %v/%d", tok, cfg.Sched, cfg.MaxParallelRanks)
		}
	}
	for _, tok := range []string{"", "par0", "par04", "par+4", "serial4", "opt-1", "fast", "optimistic", "Par"} {
		if mode, cap, err := ParseSched(tok); err == nil {
			t.Errorf("ParseSched(%q) = (%v, %d), want an error", tok, mode, cap)
		}
	}
	// The serial scheduler has no cap to render.
	if got := FormatSched(Serial, 4); got != "serial" {
		t.Errorf("FormatSched(Serial, 4) = %q", got)
	}
}

// TestParallelBodyPanicPropagates: a rank panic aborts the world and
// surfaces as an error under both parallel schedulers too.
func TestParallelBodyPanicPropagates(t *testing.T) {
	t.Parallel()
	for _, cfg := range []WorldConfig{parConfig(3), optConfig(3)} {
		w := NewWorld(cfg)
		err := w.Run(func(r *Rank) {
			if r.Rank() == 1 {
				panic("application failure")
			}
			r.Comm.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "application failure") {
			t.Fatalf("sched=%v: expected rank panic to propagate, got %v", cfg.Sched, err)
		}
	}
}

// FuzzParseSched holds ParseSched and FormatSched to being exact inverses
// on input nobody chose: a token that parses re-renders as itself, a
// rendered scheduler choice parses back to what the rendering kept of it,
// and nothing panics.
func FuzzParseSched(f *testing.F) {
	for _, tok := range []string{"serial", "par", "par4", "opt", "opt8", "", "par0", "par04", "par+4", "serial4", "opt-1", "Par", "opt99999999999999999999"} {
		f.Add(tok, uint8(len(tok)), len(tok)-3)
	}
	f.Fuzz(func(t *testing.T, token string, modeByte uint8, maxRanks int) {
		if mode, n, err := ParseSched(token); err == nil {
			if _, known := schedulerModeTokens[mode]; !known || n < 0 {
				t.Fatalf("ParseSched(%q) = (%d, %d)", token, mode, n)
			}
			if got := FormatSched(mode, n); got != token {
				t.Fatalf("FormatSched(ParseSched(%q)) = %q", token, got)
			}
		}
		mode := SchedulerMode(modeByte % 3)
		tok := FormatSched(mode, maxRanks)
		wantRanks := maxRanks
		if mode == Serial || maxRanks < 0 {
			wantRanks = 0
		}
		if m, n, err := ParseSched(tok); err != nil || m != mode || n != wantRanks {
			t.Fatalf("ParseSched(FormatSched(%v, %d) = %q) = (%v, %d, %v), want (%v, %d)", mode, maxRanks, tok, m, n, err, mode, wantRanks)
		}
	})
}
