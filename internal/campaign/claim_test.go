package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClaimer scripts claim verdicts per key and records releases.
type fakeClaimer struct {
	mu       sync.Mutex
	verdict  map[string]func() (ClaimState, error)
	claims   map[string]int
	released map[string]bool // key -> completed flag of the last release
}

func newFakeClaimer() *fakeClaimer {
	return &fakeClaimer{
		verdict:  map[string]func() (ClaimState, error){},
		claims:   map[string]int{},
		released: map[string]bool{},
	}
}

func (f *fakeClaimer) TryClaim(key, hash string) (ClaimState, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.claims[key]++
	if v, ok := f.verdict[key]; ok {
		return v()
	}
	return ClaimRun, nil
}

func (f *fakeClaimer) Release(key, hash string, completed bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released[key] = completed
	return nil
}

func TestClaimRunExecutesAndReleasesCompleted(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	var runs atomic.Int64
	res, err := Run(context.Background(), Config{Store: st, Claimer: cl},
		[]Job{countingJob("job/a", "h", &runs)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || res[0].Cached {
		t.Fatalf("runs=%d cached=%v", runs.Load(), res[0].Cached)
	}
	if completed, ok := cl.released["job/a"]; !ok || !completed {
		t.Errorf("release recorded %v, %v; want completed=true", completed, ok)
	}
	if _, ok, _ := st.Get("job/a", "h"); !ok {
		t.Error("payload not stored before release")
	}
}

func TestClaimReleasesFailedJobsUncompleted(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Store: st, Claimer: cl}, []Job{{
		Key: "job/f", Hash: "h",
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(_ context.Context, data []byte) (any, error) { return nil, nil },
		Run:    func(context.Context, map[string]any) (any, error) { return nil, boom },
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if completed, ok := cl.released["job/f"]; !ok || completed {
		t.Errorf("release recorded %v, %v; want completed=false", completed, ok)
	}
}

func TestClaimDoneDecodesOtherProcessesPayload(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	payload, _ := json.Marshal("value-from-elsewhere")
	if err := st.Put("job/d", "h", payload); err != nil {
		t.Fatal(err)
	}
	cl := newFakeClaimer()
	// The initial store probe in execute already satisfies the job, so the
	// claimer must never even be consulted when the payload pre-exists.
	res, err := Run(context.Background(), Config{Store: st, Claimer: cl}, []Job{{
		Key: "job/d", Hash: "h",
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(_ context.Context, data []byte) (any, error) {
			var v string
			err := json.Unmarshal(data, &v)
			return v, err
		},
		Run: func(context.Context, map[string]any) (any, error) {
			t.Error("job ran despite stored payload")
			return nil, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached || res[0].Value != "value-from-elsewhere" {
		t.Fatalf("result = %+v", res[0])
	}
	if cl.claims["job/d"] != 0 {
		t.Errorf("claimer consulted %d times for a store hit", cl.claims["job/d"])
	}
}

func TestBusyJobsDeferUntilDoneElsewhere(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	// job/busy is held by a fictitious other process; after two probes the
	// other process "completes" it (payload appears) and the claimer
	// reports done.
	var probes atomic.Int64
	cl.verdict["job/busy"] = func() (ClaimState, error) {
		if probes.Add(1) < 3 {
			return ClaimBusy, nil
		}
		payload, _ := json.Marshal("value-elsewhere")
		st.Put("job/busy", "h", payload)
		return ClaimDone, nil
	}
	var runs atomic.Int64
	jobs := []Job{
		{
			Key: "job/busy", Hash: "h",
			Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
			Decode: func(_ context.Context, data []byte) (any, error) {
				var v string
				err := json.Unmarshal(data, &v)
				return v, err
			},
			Run: func(context.Context, map[string]any) (any, error) {
				t.Error("busy job executed locally")
				return nil, nil
			},
		},
		countingJob("job/local", "h", &runs),
	}
	res, err := Run(context.Background(),
		Config{Store: st, Claimer: cl, ClaimBackoff: time.Millisecond, Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != "value-elsewhere" || !res[0].Cached {
		t.Fatalf("busy job result = %+v", res[0])
	}
	if res[1].Value != "value-job/local" || runs.Load() != 1 {
		t.Fatalf("local job result = %+v (runs %d)", res[1], runs.Load())
	}
	if probes.Load() < 3 {
		t.Errorf("busy job probed %d times, want >= 3", probes.Load())
	}
}

func TestBusyJobsSettleWithContextErrorOnCancel(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	cl.verdict["job/stuck"] = func() (ClaimState, error) { return ClaimBusy, nil }
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	var runs atomic.Int64
	jobs := []Job{
		{
			Key: "job/stuck", Hash: "h",
			Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
			Decode: func(_ context.Context, data []byte) (any, error) { return nil, nil },
			Run:    func(context.Context, map[string]any) (any, error) { return "never", nil },
		},
		countingJob("job/ok", "h", &runs),
	}
	res, err := Run(ctx, Config{Store: st, Claimer: cl, ClaimBackoff: time.Millisecond, Workers: 2}, jobs)
	if err == nil {
		t.Fatal("campaign succeeded despite a permanently busy job")
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("stuck job err = %v, want context.Canceled", res[0].Err)
	}
	if res[1].Err != nil {
		t.Errorf("healthy job err = %v", res[1].Err)
	}
}

func TestClaimDoneWithMissingPayloadFailsLoudly(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	cl.verdict["job/ghost"] = func() (ClaimState, error) { return ClaimDone, nil }
	_, err := Run(context.Background(), Config{Store: st, Claimer: cl}, []Job{{
		Key: "job/ghost", Hash: "h",
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(_ context.Context, data []byte) (any, error) { return "v", nil },
		Run:    func(context.Context, map[string]any) (any, error) { return "v", nil },
	}})
	if err == nil {
		t.Fatal("done-without-payload did not fail the job")
	}
}

func TestClaimerSkippedForUncheckpointableJobs(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	var runs atomic.Int64
	// No Decode: the job cannot consume another process's payload, so it
	// must run locally without consulting the claimer.
	_, err := Run(context.Background(), Config{Store: st, Claimer: cl}, []Job{{
		Key: "job/nodecode", Hash: "h",
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Run: func(context.Context, map[string]any) (any, error) {
			runs.Add(1)
			return "v", nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || cl.claims["job/nodecode"] != 0 {
		t.Errorf("runs=%d claims=%d, want 1 and 0", runs.Load(), cl.claims["job/nodecode"])
	}
}

func TestDeferredJobsKeepDependentsCorrect(t *testing.T) {
	t.Parallel()
	st := newMemStore()
	cl := newFakeClaimer()
	// The dependency is busy for a while, then this process wins it; the
	// dependent must see its value.
	var probes atomic.Int64
	cl.verdict["dep"] = func() (ClaimState, error) {
		if probes.Add(1) < 3 {
			return ClaimBusy, nil
		}
		return ClaimRun, nil
	}
	var runs atomic.Int64
	jobs := []Job{
		countingJob("dep", "h", &runs),
		{
			Key: "down", After: []string{"dep"},
			Run: func(_ context.Context, deps map[string]any) (any, error) {
				return fmt.Sprintf("saw %v", deps["dep"]), nil
			},
		},
	}
	res, err := Run(context.Background(),
		Config{Store: st, Claimer: cl, ClaimBackoff: time.Millisecond, Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Value != "saw value-dep" {
		t.Fatalf("dependent saw %v", res[1].Value)
	}
}

// TestJobPanicIsAJobError: a panic in a job's Run or Decode settles that
// job with an error carrying the panic value and its stack; dependents
// skip, sibling jobs finish, nothing is checkpointed for the job and a
// held claim is given back unfinished. (It used to unwind through the
// worker's deferred unlock and kill the process with "sync: unlock of
// unlocked mutex".)
func TestJobPanicIsAJobError(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		store   bool
		claimer bool
		decode  bool // the panic is in Decode of a stored payload, not in Run
	}{
		{name: "plain"},
		{name: "with a Store", store: true},
		{name: "with a Store, in Decode", store: true, decode: true},
		{name: "with a Claimer", store: true, claimer: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			st, cl := newMemStore(), newFakeClaimer()
			if tc.store {
				cfg.Store = st
			}
			if tc.claimer {
				cfg.Claimer = cl
			}
			var runs atomic.Int64
			boom := countingJob("boom", "h", &runs)
			if tc.decode {
				st.Put("boom", "h", []byte(`"stored"`))
				boom.Decode = func(context.Context, []byte) (any, error) { panic("kaboom") }
			} else {
				boom.Run = func(context.Context, map[string]any) (any, error) { panic("kaboom") }
			}
			after := countingJob("after", "h", &runs)
			after.After = []string{"boom"}
			res, err := Run(context.Background(), cfg, []Job{boom, after, countingJob("sibling", "h", &runs)})
			if err == nil {
				t.Fatal("campaign with a panicking job returned no error")
			}
			if msg := res[0].Err.Error(); !strings.Contains(msg, "panic: kaboom") || !strings.Contains(msg, "TestJobPanicIsAJobError") {
				t.Errorf("panicking job's error lacks the panic value or its stack:\n%s", msg)
			}
			if res[0].Value != nil {
				t.Errorf("panicking job settled with value %v", res[0].Value)
			}
			if !errors.Is(res[1].Err, ErrDependency) {
				t.Errorf("dependent settled with %v, want ErrDependency", res[1].Err)
			}
			if res[2].Err != nil || res[2].Value != "value-sibling" {
				t.Errorf("sibling settled with %v, %v", res[2].Value, res[2].Err)
			}
			if runs.Load() != 1 {
				t.Errorf("%d jobs ran, want the sibling alone", runs.Load())
			}
			if _, ok, _ := st.Get("boom", "h"); ok != tc.decode {
				t.Errorf("store holds the panicking job: %v", ok)
			}
			if completed, ok := cl.released["boom"]; tc.claimer && (!ok || completed) {
				t.Errorf("release recorded %v, %v; want completed=false", completed, ok)
			}
		})
	}
}
