package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Wake-up tests. Serial and conservative ranks wait for the token each on
// their own cond and a hand-off signals one rank, MaxParallelRanks slot
// waiters and parked optimistic ranks share another: a wake-up sent to the
// wrong queue, or to one rank where all must wake, is a hang, not a wrong
// number. Every world here runs under a watchdog, at 16 and 64 ranks, with
// and without a cap of 2 (which puts turn waiters and slot waiters on
// different queues at once). CI runs them under -race at GOMAXPROCS 1, 2, 4.

// wakeConfigs returns every scheduler configuration at p ranks.
func wakeConfigs(p int) []WorldConfig {
	cfgs := []WorldConfig{testConfig(p)}
	for _, cfg := range []WorldConfig{parConfig(p), optConfig(p)} {
		capped := cfg
		capped.MaxParallelRanks = 2
		cfgs = append(cfgs, cfg, capped)
	}
	return cfgs
}

// forEachWakeConfig runs fn as a parallel subtest per rank count and
// scheduler configuration.
func forEachWakeConfig(t *testing.T, fn func(t *testing.T, cfg WorldConfig)) {
	for _, p := range []int{16, 64} {
		for _, cfg := range wakeConfigs(p) {
			cfg := cfg
			t.Run(fmt.Sprintf("p%d/%s/cap%d", p, cfg.Sched, cfg.MaxParallelRanks), func(t *testing.T) {
				t.Parallel()
				fn(t, cfg)
			})
		}
	}
}

// runOrHang runs body and returns Run's error; a Run that has not returned
// after a minute — some goroutine was never woken — fails the test.
func runOrHang(t *testing.T, w *World, body func(*Rank)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("World.Run did not return: a parked rank was never woken")
		return nil
	}
}

// blockedRanks counts the ranks parked inside a blocking MPI call.
func blockedRanks(w *World) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, st := range w.status {
		if st == stBlocked {
			n++
		}
	}
	return n
}

// TestRankPanicWakesEveryParkedRank: the last rank panics once every other
// rank is parked in a receive that will never match. Each parked goroutine
// must be woken to unwind (Run returns only when all have), and Run must
// return the original panic, not a deadlock or the abort sentinel.
func TestRankPanicWakesEveryParkedRank(t *testing.T) {
	forEachWakeConfig(t, func(t *testing.T, cfg WorldConfig) {
		w := NewWorld(cfg)
		last := cfg.Procs - 1
		err := runOrHang(t, w, func(r *Rank) {
			if r.Rank() != last {
				r.Comm.Recv(last, 0, make([]float64, 1))
				return
			}
			for blockedRanks(w) < last {
				runtime.Gosched()
			}
			panic("application failure")
		})
		want := fmt.Sprintf("rank %d panicked: application failure", last)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("Run returned %v, want the original panic (%q)", err, want)
		}
	})
}

// TestDeadlockReportsEveryBlockedRank: a ring of receives nobody sends to
// parks every rank; the deadlock must be declared, every rank woken to
// unwind, and the report must list each rank as blocked in its receive.
func TestDeadlockReportsEveryBlockedRank(t *testing.T) {
	forEachWakeConfig(t, func(t *testing.T, cfg WorldConfig) {
		p := cfg.Procs
		err := runOrHang(t, NewWorld(cfg), func(r *Rank) {
			r.Comm.Recv((r.Rank()+1)%p, 3, make([]float64, 1))
		})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("Run returned %v, want a deadlock", err)
		}
		lines := strings.Split(err.Error(), "\n")
		for rank := 0; rank < p; rank++ {
			prefix := fmt.Sprintf("  rank %d: blocked at t=", rank)
			suffix := fmt.Sprintf(" in MPI_Recv(src=%d, tag=3) on comm 0", (rank+1)%p)
			found := false
			for _, line := range lines {
				found = found || strings.HasPrefix(line, prefix) && strings.HasSuffix(line, suffix)
			}
			if !found {
				t.Fatalf("deadlock report has no line %q...%q:\n%v", prefix, suffix, err)
			}
		}
	})
}

// TestTokenGrantedWhileComputing: under the conservative scheduler the last
// rank keeps computing until the token has been handed to it — a signal that
// finds no waiter, since the rank is not inside MPI — and only then enters
// the barrier everyone else is parked in. The grant must not be lost: the
// rank proceeds at its next lockShared, completes the barrier, and every
// other rank is handed the token in turn to leave it.
func TestTokenGrantedWhileComputing(t *testing.T) {
	for _, p := range []int{16, 64} {
		for _, slots := range []int{0, 2} {
			cfg := parConfig(p)
			cfg.MaxParallelRanks = slots
			t.Run(fmt.Sprintf("p%d/cap%d", p, slots), func(t *testing.T) {
				t.Parallel()
				w := NewWorld(cfg)
				last := p - 1
				err := runOrHang(t, w, func(r *Rank) {
					if r.Rank() == last {
						for granted := false; !granted; runtime.Gosched() {
							w.mu.Lock()
							granted = w.current == last
							w.mu.Unlock()
						}
					}
					r.Comm.Barrier()
					r.Comm.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range w.Ranks() {
					if got, want := r.Proc.Now(), w.Ranks()[0].Proc.Now(); got != want {
						t.Errorf("rank %d left the barriers at t=%v, rank 0 at t=%v", r.Rank(), got, want)
					}
				}
			})
		}
	}
}
