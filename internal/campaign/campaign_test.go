package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// job builds a trivial successful job returning its key.
func okJob(key string, after ...string) Job {
	return Job{Key: key, After: after, Run: func(context.Context, map[string]any) (any, error) {
		return key, nil
	}}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4, 32} {
		var jobs []Job
		for i := 0; i < 20; i++ {
			i := i
			jobs = append(jobs, Job{
				Key: fmt.Sprintf("j%02d", i),
				Run: func(context.Context, map[string]any) (any, error) { return i * i, nil },
			})
		}
		res, err := Run(context.Background(), Config{Workers: workers}, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 20 {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, r := range res {
			if r.Key != fmt.Sprintf("j%02d", i) || r.Value.(int) != i*i {
				t.Errorf("workers=%d result %d = %+v", workers, i, r)
			}
		}
	}
}

func TestDependenciesSeeUpstreamValues(t *testing.T) {
	t.Parallel()
	jobs := []Job{
		okJob("a"),
		okJob("b"),
		{Key: "sum", After: []string{"a", "b"}, Run: func(_ context.Context, deps map[string]any) (any, error) {
			return deps["a"].(string) + "+" + deps["b"].(string), nil
		}},
	}
	res, err := Run(context.Background(), Config{Workers: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Value != "a+b" {
		t.Errorf("sum = %v", res[2].Value)
	}
}

func TestDependencyFailureSkipsTransitively(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	jobs := []Job{
		{Key: "bad", Run: func(context.Context, map[string]any) (any, error) { return nil, boom }},
		okJob("child", "bad"),
		okJob("grandchild", "child"),
		okJob("independent"),
	}
	res, err := Run(context.Background(), Config{Workers: 2}, jobs)
	if err == nil {
		t.Fatal("no aggregate error")
	}
	if !errors.Is(res[0].Err, boom) {
		t.Errorf("bad err = %v", res[0].Err)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(res[i].Err, ErrDependency) {
			t.Errorf("%s err = %v, want ErrDependency", res[i].Key, res[i].Err)
		}
	}
	if res[3].Err != nil || res[3].Value != "independent" {
		t.Errorf("independent job harmed: %+v", res[3])
	}
	if !errors.Is(err, boom) || !errors.Is(err, ErrDependency) {
		t.Errorf("aggregate error misses causes: %v", err)
	}
}

func TestCanceledContextSettlesEverything(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{Workers: 2}, []Job{okJob("a"), okJob("b", "a")})
	if err == nil {
		t.Fatal("no error from canceled campaign")
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("a err = %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Error("b settled without error")
	}
}

func TestStructuralValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		jobs []Job
	}{
		{"empty key", []Job{okJob("")}},
		{"nil run", []Job{{Key: "x"}}},
		{"duplicate key", []Job{okJob("x"), okJob("x")}},
		{"unknown dep", []Job{okJob("x", "ghost")}},
		{"self dep", []Job{okJob("x", "x")}},
		{"cycle", []Job{okJob("a", "b"), okJob("b", "a")}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), Config{}, c.jobs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestProgressEventsAreSerializedAndComplete(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var events []Event
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, okJob(fmt.Sprintf("j%d", i)))
	}
	_, err := Run(context.Background(), Config{Workers: 4, OnProgress: func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 12 {
		t.Fatalf("%d events", len(events))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != 12 {
			t.Errorf("event %d = %+v", i, e)
		}
	}
}

// TestBlockedProgressCallbackDoesNotStallWorkers pins the dispatcher
// decoupling: the first progress callback refuses to return until every
// job has run. If callbacks executed under the scheduler lock, the pool
// would deadlock and the test would time out.
func TestBlockedProgressCallbackDoesNotStallWorkers(t *testing.T) {
	t.Parallel()
	const n = 6
	var ran sync.WaitGroup
	ran.Add(n)
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{
			Key: fmt.Sprintf("j%d", i),
			Run: func(context.Context, map[string]any) (any, error) {
				ran.Done()
				return nil, nil
			},
		})
	}
	var events int
	_, err := Run(context.Background(), Config{Workers: 2, OnProgress: func(Event) {
		if events == 0 {
			ran.Wait() // block until every job has executed
		}
		events++
	}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if events != n {
		t.Errorf("%d events, want %d", events, n)
	}
}

func TestEmptyCampaign(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), Config{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	t.Parallel()
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("seed not deterministic")
	}
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42} {
		for _, key := range []string{"a", "b", "p3/eth/c512kB/r0", "p3/eth/c512kB/r1"} {
			s := DeriveSeed(base, key)
			if s < 0 {
				t.Errorf("negative seed %d for (%d, %q)", s, base, key)
			}
			id := fmt.Sprintf("%d/%s", base, key)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %s and %s -> %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

// TestSharedLivesOneRun: the jobs of one Run, on any worker count, share
// one value per key, made once; the value's release runs once, after
// every job has settled; the next Run of the same job list makes a new
// value; and a hook called outside a Run shares nothing.
func TestSharedLivesOneRun(t *testing.T) {
	t.Parallel()
	type counter struct {
		mu      sync.Mutex
		uses    int
		settled bool
	}
	var (
		mu               sync.Mutex
		made, released   []*counter
		releasedTooEarly bool
	)
	key := new(int)
	use := func(ctx context.Context) (*counter, bool) {
		v, ok := Shared(ctx, key, func() (any, func()) {
			c := new(counter)
			mu.Lock()
			made = append(made, c)
			mu.Unlock()
			return c, func() {
				c.mu.Lock()
				releasedTooEarly = releasedTooEarly || !c.settled
				c.mu.Unlock()
				mu.Lock()
				released = append(released, c)
				mu.Unlock()
			}
		})
		if !ok {
			return nil, false
		}
		c := v.(*counter)
		c.mu.Lock()
		c.uses++
		c.settled = c.uses == 8
		c.mu.Unlock()
		return c, true
	}
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, _ map[string]any) (any, error) {
			c, ok := use(ctx)
			if !ok {
				return nil, errors.New("no shared value inside a Run")
			}
			return c, nil
		}})
	}
	for run, workers := range []int{1, 4} {
		res, err := Run(context.Background(), Config{Workers: workers}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Value != made[run] {
				t.Errorf("run %d: %s saw another value", run, r.Key)
			}
		}
		if len(made) != run+1 || len(released) != run+1 || released[run] != made[run] || made[run].uses != 8 {
			t.Fatalf("after run %d: %d made, %d released", run, len(made), len(released))
		}
	}
	if releasedTooEarly {
		t.Error("a value was released before its Run's jobs settled")
	}
	if _, ok := use(context.Background()); ok {
		t.Error("Shared answered outside a Run")
	}
}
