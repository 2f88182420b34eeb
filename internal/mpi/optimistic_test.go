package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
)

// TestOptimisticForcedConflict manufactures a guaranteed misprediction: the
// receiver's wildcard Recv speculates on the only published message (rank
// 2's, who sends instantly in real time), while the serial order commits
// rank 1's message first (rank 1 has the smaller virtual clock but sleeps
// in wall-clock time before sending). The scheduler must detect the
// conflict, roll the receiver back, re-execute from the committed truth,
// and still produce a bit-identical trace.
func TestOptimisticForcedConflict(t *testing.T) {
	t.Parallel()
	body := func(sleep bool) func(r *Rank, log *[]string) {
		return func(r *Rank, log *[]string) {
			switch r.Rank() {
			case 0:
				buf := make([]float64, 4)
				for i := 0; i < 2; i++ {
					r.Comm.Recv(AnySource, AnyTag, buf)
					*log = append(*log, fmt.Sprintf("%g@%.3f", buf[0], r.Proc.Now()))
				}
			case 1:
				if sleep {
					// Wall-clock only: give rank 2's message time to be
					// published and speculatively picked first.
					time.Sleep(100 * time.Millisecond)
				}
				r.Proc.Advance(10)
				r.Comm.Send(0, 1, []float64{111})
			case 2:
				r.Proc.Advance(1000)
				r.Comm.Send(0, 2, []float64{222})
			}
		}
	}
	serial := runTraced(t, testConfig(3), body(false))

	cfg := optConfig(3)
	w := NewWorld(cfg)
	tr := worldTrace{log: make([][]string, cfg.Procs)}
	if err := w.Run(func(r *Rank) { body(true)(r, &tr.log[r.Rank()]) }); err != nil {
		t.Fatal(err)
	}
	for _, rk := range w.Ranks() {
		tr.clocks = append(tr.clocks, rk.Proc.Now())
	}
	for r := range serial.clocks {
		if serial.clocks[r] != tr.clocks[r] {
			t.Errorf("rank %d: clock %v (serial) != %v (optimistic)", r, serial.clocks[r], tr.clocks[r])
		}
		if fmt.Sprint(serial.log[r]) != fmt.Sprint(tr.log[r]) {
			t.Errorf("rank %d: receive log differs:\nserial:     %v\noptimistic: %v", r, serial.log[r], tr.log[r])
		}
	}
	s := w.SpecStats()
	if s.SpeculatedOps == 0 || s.Conflicts == 0 || s.Rollbacks == 0 {
		t.Errorf("expected a forced conflict and rollback, got %+v", s)
	}
	if s.ReexecutedUS <= 0 {
		t.Errorf("rollback should have discarded virtual time, got %+v", s)
	}
	if s.PublishedSends != 2 || s.CommittedOps == 0 {
		t.Errorf("commit telemetry wrong: %+v", s)
	}
}

// TestRollbackRestoresRankState drives a rank's undo log directly: after a
// checkpoint, the rank advances its clock, charges FLOPs, draws from its RNG
// and completes a request; rollback must rewind every one
// of those exactly, and re-execution must reproduce the discarded RNG draws
// bit for bit. The region does not touch the cache — no speculative region
// can, the rank is parked inside its MPI call — so the directory and its
// counters must come out as they went in, with no copy taken.
func TestRollbackRestoresRankState(t *testing.T) {
	t.Parallel()
	w := NewWorld(optConfig(1))
	r := w.Ranks()[0]

	// Pre-checkpoint history so the checkpoint is not the initial state.
	r.Proc.Advance(7)
	base := r.Proc.Alloc(4096)
	r.Proc.ChargeStream(base, 64, 8)
	for i := 0; i < 5; i++ {
		r.Proc.RNG().Float64()
	}

	req := &Request{comm: r.Comm, isRecv: true, src: 0, tag: 1, buf: []float64{1, 2, 3}}
	wantCache := r.Proc.Cache().Checkpoint()
	undo := r.specCheckpointLocked([]recvSlot{{req: req}})
	wantClock := r.Proc.Now()
	wantCounters := r.Proc.Counters()
	taken := &message{src: 0, tag: 1, taken: true}
	undo.taken = append(undo.taken, taken)

	// Speculative damage: clock, FLOPs, RNG, request.
	r.Proc.Advance(123.5)
	r.Proc.ChargeFlops(999)
	var speculativeDraws []float64
	for i := 0; i < 4; i++ {
		speculativeDraws = append(speculativeDraws, r.Proc.RNG().NormFloat64())
	}
	req.done = true
	req.n = 3
	copy(req.buf, []float64{9, 9, 9})

	r.rollbackLocked(undo)

	if r.Proc.Now() != wantClock {
		t.Errorf("clock: got %v, want %v", r.Proc.Now(), wantClock)
	}
	if r.Proc.Counters() != wantCounters {
		t.Errorf("counters: got %+v, want %+v", r.Proc.Counters(), wantCounters)
	}
	if !reflect.DeepEqual(r.Proc.Cache().Checkpoint(), wantCache) {
		t.Error("rollback left the cache directory other than at the checkpoint")
	}
	if req.done || req.n != 0 || req.buf[0] != 1 || req.buf[2] != 3 {
		t.Errorf("request not restored: %+v buf=%v", req, req.buf)
	}
	if taken.taken {
		t.Error("tentatively taken message must return to the published pool")
	}
	// Replay: the same draws must come out of the restored RNG stream.
	for i, want := range speculativeDraws {
		if got := r.Proc.RNG().NormFloat64(); got != want {
			t.Fatalf("RNG draw %d after rollback: got %v, want %v", i, got, want)
		}
	}

	// The rank's one undo log is reused by the next speculation, request
	// buffer copy included: it must hold the new state, not the old.
	req.buf[1] = 5
	undo = r.specCheckpointLocked([]recvSlot{{req: req}})
	copy(req.buf, []float64{9, 9, 9})
	r.rollbackLocked(undo)
	if len(undo.taken) != 0 || req.buf[0] != 1 || req.buf[1] != 5 || req.buf[2] != 3 {
		t.Errorf("reused undo log: taken=%d buf=%v, want none and [1 5 3]", len(undo.taken), req.buf)
	}
}

// TestRollbackPanicsIfRegionTouchedCache: speculation checkpoints hold no
// copy of the cache directory, on the invariant that a speculative region
// never accesses the cache. A region that does — hits or misses alike move
// the counters — must make rollback panic, naming the invariant, before it
// rewinds anything to a directory it cannot rewind.
func TestRollbackPanicsIfRegionTouchedCache(t *testing.T) {
	t.Parallel()
	for name, touch := range map[string]func(p *platform.Proc, base uint64){
		"misses": func(p *platform.Proc, base uint64) { p.ChargeStream(base+1<<20, 256, 8) },
		"hits":   func(p *platform.Proc, base uint64) { p.ChargeStream(base, 8, 8) },
	} {
		w := NewWorld(optConfig(1))
		r := w.Ranks()[0]
		base := r.Proc.Alloc(4096)
		r.Proc.ChargeStream(base, 64, 8)
		undo := r.specCheckpointLocked(nil)
		wantClock := r.Proc.Now()
		r.Proc.Advance(5)
		touch(r.Proc, base)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "invariant violation") || !strings.Contains(msg, "cache inside a speculative region") {
					t.Errorf("%s: rollback of a region that touched the cache: got %q, want a panic naming the invariant", name, msg)
				}
			}()
			r.rollbackLocked(undo)
		}()
		if r.Proc.Now() == wantClock {
			t.Errorf("%s: rollback rewound the clock before refusing the region", name)
		}
	}
}

// TestOptimisticDeadlockReportsSpeculation: the deadlock dump includes the
// speculation telemetry line under the optimistic scheduler.
func TestOptimisticDeadlockReportsSpeculation(t *testing.T) {
	t.Parallel()
	w := NewWorld(optConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			buf := make([]float64, 1)
			r.Comm.Recv(1, 3, buf) // rank 1 never sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "optimistic speculation:") {
		t.Fatalf("expected speculation telemetry in deadlock report, got %v", err)
	}
}

// TestSpecStatsZeroOutsideOptimistic: telemetry is the zero value for the
// serial and conservative schedulers.
func TestSpecStatsZeroOutsideOptimistic(t *testing.T) {
	t.Parallel()
	for _, cfg := range []WorldConfig{testConfig(2), parConfig(2)} {
		w := NewWorld(cfg)
		if err := w.Run(func(r *Rank) { r.Comm.Barrier() }); err != nil {
			t.Fatal(err)
		}
		if w.SpecStats() != (SpecStats{}) {
			t.Errorf("sched=%v: SpecStats = %+v, want zero", cfg.Sched, w.SpecStats())
		}
	}
}

// TestOptimisticPipelinesSpecificSourceRecvs: the conflict-free fast path
// actually pipelines — a ghost-exchange-shaped pattern completes its
// specific-source receives without a single conflict or rollback.
func TestOptimisticPipelinesSpecificSourceRecvs(t *testing.T) {
	t.Parallel()
	const p = 4
	w := NewWorld(optConfig(p))
	err := w.Run(func(r *Rank) {
		me := r.Rank()
		buf := make([]float64, 8)
		payload := make([]float64, 8)
		for step := 0; step < 10; step++ {
			left, right := (me+p-1)%p, (me+1)%p
			r.Comm.Isend(left, step, payload)
			r.Comm.Isend(right, step, payload)
			r.Comm.Recv(left, step, buf)
			r.Comm.Recv(right, step, buf)
			r.Proc.Advance(50)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.SpecStats()
	if s.Conflicts != 0 || s.Rollbacks != 0 || s.SpeculatedOps != 0 {
		t.Errorf("specific-source pattern must be conflict-free, got %+v", s)
	}
	if s.PipelinedOps == 0 || s.PublishedSends != uint64(p*2*10) {
		t.Errorf("fast path did not pipeline: %+v", s)
	}
}
