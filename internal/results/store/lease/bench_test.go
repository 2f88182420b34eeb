package lease

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/results/store"
)

// BenchmarkLeaseClaim measures contended claim throughput: four workers
// race every slot, exactly one wins it, runs "the job" (stores a
// payload), releases, and the losers re-probe to the done verdict — the
// full per-job protocol cost of a distributed campaign. ReportAllocs
// guards the protocol's allocation footprint in CI at -benchtime=1x.
func BenchmarkLeaseClaim(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	mgrs := make([]*Manager, workers)
	for i := range mgrs {
		m, err := Open(st, fmt.Sprintf("w%d", i), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		mgrs[i] = m
	}
	payload := []byte("payload")
	b.ReportAllocs()
	jobs := 0
	for ; b.Loop(); jobs++ {
		key := fmt.Sprintf("job/%d", jobs)
		var wg sync.WaitGroup
		for _, m := range mgrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := m.TryClaim(key, "h")
				if err != nil {
					b.Error(err)
					return
				}
				if s != campaign.ClaimRun {
					return
				}
				if err := st.Put(key, "h", payload); err != nil {
					b.Error(err)
					return
				}
				if err := m.Release(key, "h", true); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	// The protocol invariant holds under contention: every slot was
	// executed at least once, and a slot re-claimed after a completed
	// release is impossible because the store answers done.
	audit, err := ReadAudit(st)
	if err != nil {
		b.Fatal(err)
	}
	if len(audit) != jobs {
		b.Fatalf("audit covers %d of %d jobs", len(audit), jobs)
	}
}

// BenchmarkLeaseClaimUncontended is the single-worker floor: one claim,
// store put and release per job, no racing peers.
func BenchmarkLeaseClaimUncontended(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m, err := Open(st, "solo", Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	payload := []byte("payload")
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		key := fmt.Sprintf("job/%d", i)
		s, err := m.TryClaim(key, "h")
		if err != nil || s != campaign.ClaimRun {
			b.Fatalf("claim = %v, %v", s, err)
		}
		if err := st.Put(key, "h", payload); err != nil {
			b.Fatal(err)
		}
		if err := m.Release(key, "h", true); err != nil {
			b.Fatal(err)
		}
	}
}
