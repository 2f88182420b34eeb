// Package campaign runs the repository's experiment campaigns — kernel
// sweeps, cache studies, case-study runs, figure regeneration — as a graph
// of independent jobs executed by a worker pool.
//
// Each job owns a self-contained simulated machine (an mpi.World carries
// its own virtual clocks, caches and seeded RNG streams), so independent
// jobs parallelize without perturbing each other's measurements: a campaign
// produces byte-identical results whether it runs on one worker or many.
// Randomness is derived per job from a base seed and the job's stable key
// (DeriveSeed), never from scheduling order.
//
// The executor supports job dependencies (Job.After), context
// cancellation, run-to-completion error aggregation, and serialized
// progress reporting.
//
// With a Store, completed jobs checkpoint and interrupted campaigns
// resume; with a Claimer on top (results/store/lease), N independent
// campaign processes sharing one store partition the job set among
// themselves — each job executes in exactly one process and the rest
// replay its stored payload, so every process's output stays
// byte-identical to a single-process run.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/results"
)

// Job is one schedulable unit of a campaign, identified by a stable key:
// typically a full simulated-machine run (a sweep, a case study) or work
// derived from such runs (a figure render).
type Job struct {
	// Key identifies the job within its campaign. Keys must be unique and
	// non-empty; they name results, seed derivation and progress events.
	Key string
	// After lists the keys of jobs that must complete successfully before
	// this one starts. Their values are handed to Run.
	After []string
	// Run performs the work. deps maps each After key to that job's value.
	// The context is canceled when the campaign aborts.
	Run func(ctx context.Context, deps map[string]any) (any, error)

	// Hash, when non-empty, makes the job checkpointable: before Run, the
	// campaign store (Config.Store) is consulted at (Key, Hash) and a hit
	// settles the job with the decoded payload instead of running it; after
	// a successful run the encoded value is saved. The hash must fingerprint
	// everything the job's output depends on (its full configuration).
	Hash string
	// Encode marshals the job's value for the store. Nil disables saving.
	Encode func(v any) ([]byte, error)
	// Decode unmarshals a stored payload back into the job's value. Nil
	// disables lookup; a decode error is treated as a cache miss and the
	// job runs. The context is the same one Run would have received
	// (carrying the campaign sink), so Decode can replay side effects —
	// typically re-emitting the job's result rows via Emit — and a resumed
	// campaign streams exactly what an uninterrupted one would. Errors
	// from such replays must be wrapped with ErrReplay: they fail the job
	// rather than re-run it, because the rows already emitted cannot be
	// taken back.
	Decode func(ctx context.Context, data []byte) (any, error)
}

// Result is one job's outcome, reported in submission order.
type Result struct {
	// Key is the job's key.
	Key string
	// Value is what Run returned (nil on error or skip).
	Value any
	// Err is the job's failure, a dependency skip (errors.Is ErrDependency)
	// or the campaign context's error if the job never ran.
	Err error
	// Elapsed is the job's real (host) execution time; zero if it never ran.
	Elapsed time.Duration
	// Cached reports that the value came from the checkpoint store and Run
	// was never invoked.
	Cached bool
}

// Event is one progress report, delivered serially as jobs settle.
type Event struct {
	// Key is the job that settled.
	Key string
	// Err is the job's outcome (nil on success).
	Err error
	// Elapsed is the job's real execution time.
	Elapsed time.Duration
	// Done and Total count settled jobs against the campaign size.
	Done, Total int
	// Cached reports that the job was satisfied from the checkpoint store.
	Cached bool
}

// Config tunes a campaign run.
type Config struct {
	// Workers caps concurrent jobs. Zero or negative means
	// runtime.NumCPU(). Worker count never changes results, only wall time.
	Workers int
	// OnProgress, when set, receives one Event per settled job. Events are
	// delivered serially, in settle order, by a dedicated dispatcher
	// goroutine: a slow callback delays event delivery (and Run's return),
	// never job execution. The callback must not call back into the
	// campaign.
	OnProgress func(Event)
	// Store, when set, checkpoints jobs that carry a Hash: completed
	// payloads are saved under (key, hash) and consulted before running, so
	// an interrupted campaign resumes without re-running finished jobs.
	Store Store
	// Sink, when set, receives the rows jobs emit via Emit(ctx, ...). The
	// sink is flushed (not closed) when the campaign returns; flush errors
	// join the campaign error.
	Sink results.Sink
	// Claimer, when set alongside Store, coordinates this campaign with
	// other independent processes partitioning the same job set over the
	// same store (results/store/lease implements it). Before running a
	// fully checkpointable job (Hash, Encode and Decode all set) that the
	// store does not yet hold, the worker claims it: a ClaimRun runs the
	// job here and releases the claim after the checkpoint is saved; a
	// ClaimDone decodes the payload another process stored (replaying its
	// rows), so this campaign's sink output stays byte-identical to a
	// single-process run; a ClaimBusy defers the job — the worker moves on
	// to other ready jobs and re-tries claimed-elsewhere ones every
	// ClaimBackoff until each is won, stolen or completed.
	Claimer Claimer
	// ClaimBackoff is the poll interval while every runnable job is
	// claimed by another process. Zero means 25ms.
	ClaimBackoff time.Duration
}

// ClaimState is a Claimer's verdict on one job.
type ClaimState int

const (
	// ClaimBusy: another live process holds the job; re-try later.
	ClaimBusy ClaimState = iota
	// ClaimRun: the caller now owns the job and must Release it when the
	// run (and checkpoint save) finishes.
	ClaimRun
	// ClaimDone: another process completed the job; the store holds its
	// payload.
	ClaimDone
)

// String renders the state for diagnostics.
func (s ClaimState) String() string {
	switch s {
	case ClaimBusy:
		return "busy"
	case ClaimRun:
		return "run"
	case ClaimDone:
		return "done"
	}
	return fmt.Sprintf("ClaimState(%d)", int(s))
}

// Claimer arbitrates job ownership among independent campaign processes
// sharing one checkpoint store. TryClaim must grant ClaimRun for a given
// (key, hash) to at most one live claimant at a time, and must report
// ClaimDone once the store holds the job's payload; Release gives a granted
// claim back, with completed reporting whether the payload was stored.
// Implementations must be safe for concurrent use by campaign workers.
type Claimer interface {
	TryClaim(key, hash string) (ClaimState, error)
	Release(key, hash string, completed bool) error
}

// Store is the checkpoint interface the campaign consults for jobs with a
// Hash (results/store.Store implements it). Get reports a missing entry
// with ok=false, not an error; Put must be atomic under concurrent use.
type Store interface {
	Get(key, hash string) (payload []byte, ok bool, err error)
	Put(key, hash string, payload []byte) error
}

// sinkKey carries the campaign sink through job contexts.
type sinkKey struct{}

// withSink returns a context through which Emit reaches the given sink.
func withSink(ctx context.Context, s results.Sink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// Emit streams one result row from a job to the campaign sink under the
// given key (by convention the emitting job's key). Without a sink in the
// context it is a no-op, so jobs emit unconditionally and stay usable in
// sink-less campaigns.
func Emit(ctx context.Context, key string, row results.Row) error {
	if s, ok := ctx.Value(sinkKey{}).(results.Sink); ok && s != nil {
		return s.Emit(key, row)
	}
	return nil
}

// ErrDependency marks a job skipped because a prerequisite failed.
var ErrDependency = errors.New("campaign: dependency failed")

// ErrReplay marks a Decode failure that happened while replaying a
// checkpointed job's side effects (row emission), after the payload itself
// decoded. Decode hooks wrap such errors so the campaign fails the job
// loudly instead of re-running it — a re-run would emit the already
// replayed rows a second time, silently corrupting sink output.
var ErrReplay = errors.New("campaign: checkpoint replay failed")

// state tracks one job through the scheduler.
type state struct {
	waiting    int   // unmet prerequisites
	dependents []int // jobs waiting on this one
	settled    bool
}

// Run executes the jobs under cfg and returns their results in submission
// order. The returned error aggregates every job failure (errors.Join),
// wrapped with the failing job's key; it is nil only if every job
// succeeded. Structural problems — duplicate or empty keys, unknown or
// cyclic dependencies, a nil Run — fail the whole campaign before any job
// starts.
func Run(ctx context.Context, cfg Config, jobs []Job) ([]Result, error) {
	n := len(jobs)
	results := make([]Result, n)
	index := make(map[string]int, n)
	for i, j := range jobs {
		results[i].Key = j.Key
		if j.Key == "" {
			return nil, fmt.Errorf("campaign: job %d has an empty key", i)
		}
		if j.Run == nil {
			return nil, fmt.Errorf("campaign: job %q has a nil Run", j.Key)
		}
		if prev, dup := index[j.Key]; dup {
			return nil, fmt.Errorf("campaign: duplicate job key %q (jobs %d and %d)", j.Key, prev, i)
		}
		index[j.Key] = i
	}
	states := make([]state, n)
	for i, j := range jobs {
		for _, dep := range j.After {
			di, ok := index[dep]
			if !ok {
				return nil, fmt.Errorf("campaign: job %q waits on unknown job %q", j.Key, dep)
			}
			if di == i {
				return nil, fmt.Errorf("campaign: job %q waits on itself", j.Key)
			}
			states[i].waiting++
			states[di].dependents = append(states[di].dependents, i)
		}
	}
	if err := checkAcyclic(jobs, states); err != nil {
		return nil, err
	}
	if n == 0 {
		return results, nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if cfg.Sink != nil {
		ctx = withSink(ctx, cfg.Sink)
	}

	// Observability (when globally enabled) records one trace track per
	// worker plus lifecycle counters. It is strictly write-only: nothing
	// here feeds back into scheduling, so observed and unobserved
	// campaigns produce byte-identical results.
	var tracks []*obs.Track
	var met campMetrics
	if o := obs.Active(); o != nil {
		tracks = make([]*obs.Track, workers)
		for w := range tracks {
			// One Track per worker, resolved once here and reused for every job.
			tracks[w] = o.Tracer().Track("campaign", fmt.Sprintf("worker %02d", w))
		}
		met = newCampMetrics(o.Metrics())
	}

	run := &runState{
		ctx:    ctx,
		cfg:    cfg,
		tracks: tracks,
		met:    met,
		// Jobs are copied so settled entries can be dropped without
		// mutating the caller's slice: a job's closures (and anything they
		// capture, like a streaming job's emitted rows awaiting Encode)
		// become collectable as soon as it settles, keeping campaign
		// memory bounded by the jobs in flight.
		jobs:    append([]Job(nil), jobs...),
		states:  states,
		index:   index,
		results: results,
		total:   n,
	}
	run.cond = sync.NewCond(&run.mu)
	run.mu.Lock()
	for i := range jobs {
		if states[i].waiting == 0 {
			run.ready = append(run.ready, i)
		}
	}
	run.mu.Unlock()

	var dispatchDone chan struct{}
	if cfg.OnProgress != nil {
		dispatchDone = make(chan struct{})
		go run.dispatch(dispatchDone)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run.work(w)
		}(w)
	}
	wg.Wait()
	if dispatchDone != nil {
		run.mu.Lock()
		run.cond.Broadcast()
		run.mu.Unlock()
		<-dispatchDone
	}

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("job %q: %w", results[i].Key, results[i].Err))
		}
	}
	if cfg.Sink != nil {
		if err := cfg.Sink.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("campaign: sink flush: %w", err))
		}
	}
	return results, errors.Join(errs...)
}

// campMetrics caches the campaign's registry instruments. The zero
// value (all nil, observability disabled) is valid: every update is a
// nil-safe no-op.
type campMetrics struct {
	settled  *obs.Counter
	cached   *obs.Counter
	failed   *obs.Counter
	skipped  *obs.Counter
	deferred *obs.Counter
	polls    *obs.Counter
	jobUS    *obs.Histogram
}

func newCampMetrics(reg *obs.Registry) campMetrics {
	return campMetrics{
		settled:  reg.Counter("campaign_jobs_settled_total"),
		cached:   reg.Counter("campaign_jobs_cached_total"),
		failed:   reg.Counter("campaign_jobs_failed_total"),
		skipped:  reg.Counter("campaign_jobs_skipped_total"),
		deferred: reg.Counter("campaign_jobs_deferred_total"),
		polls:    reg.Counter("campaign_claim_polls_total"),
		jobUS:    reg.Histogram("campaign_job_us", obs.LatencyBucketsUS),
	}
}

// runState is the scheduler shared by a campaign's workers.
type runState struct {
	ctx    context.Context
	cfg    Config
	jobs   []Job
	states []state
	index  map[string]int // job key -> slice position
	tracks []*obs.Track   // per-worker trace lanes; nil when unobserved
	met    campMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []int // indices with no unmet deps, ascending
	deferred []int // runnable jobs currently claimed by another process
	polling  bool  // one worker is sleeping a claim-backoff interval
	results  []Result
	pending  []Event // settled but undelivered progress events
	done     int
	total    int
}

// dispatch delivers queued progress events in settle order, decoupling the
// user's callback from the scheduler: workers only append to the queue.
func (r *runState) dispatch(done chan struct{}) {
	defer close(done)
	r.mu.Lock()
	for {
		for len(r.pending) == 0 && r.done < r.total {
			r.cond.Wait()
		}
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		batch := r.pending
		r.pending = nil
		r.mu.Unlock()
		for _, e := range batch {
			r.cfg.OnProgress(e)
		}
		r.mu.Lock()
	}
}

// work is one worker's loop: claim the lowest-index ready job, run it,
// settle it, repeat until every job has settled. Jobs a Claimer reports
// busy (claimed by another process) are deferred, not settled: when the
// ready list drains with deferred jobs outstanding, one worker sleeps a
// claim-backoff interval and requeues them, so the campaign keeps probing
// until every job is won, stolen or observed completed in the store.
func (r *runState) work(w int) {
	var tr *obs.Track
	if r.tracks != nil {
		tr = r.tracks[w]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for len(r.ready) == 0 && r.done < r.total {
			if len(r.deferred) > 0 && !r.polling {
				r.pollLocked()
				continue
			}
			r.cond.Wait()
		}
		if len(r.ready) == 0 {
			return // every job settled
		}
		i := r.ready[0]
		r.ready = r.ready[1:]

		if err := r.ctx.Err(); err != nil {
			r.settleLocked(i, nil, err, 0, false)
			continue
		}
		job := r.jobs[i]
		deps := make(map[string]any, len(job.After))
		for _, dep := range job.After {
			deps[dep] = r.results[r.index[dep]].Value
		}
		r.mu.Unlock()
		v, elapsed, cached, busy, err := r.execute(tr, job, deps)
		r.mu.Lock()
		if busy {
			r.deferred = append(r.deferred, i)
			continue
		}
		r.settleLocked(i, v, err, elapsed, cached)
	}
}

// pollLocked parks the calling worker for one claim-backoff interval and
// then requeues every deferred job. Exactly one worker polls at a time
// (r.polling); the rest wait on the condition variable and wake when the
// poller broadcasts. Caller holds r.mu; the lock is released while
// sleeping. Context cancellation cuts the sleep short — the requeued jobs
// then settle with the context's error as workers pick them up.
func (r *runState) pollLocked() {
	r.polling = true
	backoff := r.cfg.ClaimBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	r.met.polls.Inc()
	r.mu.Unlock()
	t := time.NewTimer(backoff)
	select {
	case <-t.C:
	case <-r.ctx.Done():
		t.Stop()
	}
	r.mu.Lock()
	r.ready = append(r.ready, r.deferred...)
	sort.Ints(r.ready)
	r.deferred = r.deferred[:0]
	r.polling = false
	r.cond.Broadcast()
}

// execute satisfies one claimed job: from the checkpoint store when the
// job is checkpointable and a payload exists, otherwise by running it (and
// saving the new payload). A store read failure or an undecodable payload
// degrades to a cache miss; a replay failure (ErrReplay: the payload
// decoded but re-emitting its rows failed partway) fails the job instead
// of re-running it, since a re-run would duplicate the replayed rows; and
// a failure to save a finished result is a job error — silently losing the
// checkpoint would make "resume re-runs nothing" a lie.
//
// With a Claimer configured, a fully checkpointable job that misses the
// store is arbitrated before running: busy=true reports that another
// process holds it (the scheduler defers and re-tries), ClaimDone decodes
// the payload that process stored, and ClaimRun runs the job here under
// the claim, releasing it after the checkpoint save so other processes
// flip from busy to done without ever re-executing the job.
//
// No panic leaves execute: work calls it with the scheduler lock released
// and a deferred unlock pending, so an escaping panic would die unlocking
// an unlocked mutex with the original panic buried.
//
//repolint:allow wallclock -- job elapsed time is measurement metadata (progress events, obs spans, lease audit); it never reaches rendered output or hashes
func (r *runState) execute(tr *obs.Track, job Job, deps map[string]any) (v any, elapsed time.Duration, cached, busy bool, err error) {
	sp := tr.Begin("job", job.Key)
	defer func() {
		if busy {
			// A busy probe is a moment, not an occupancy: record it as an
			// instant so the worker lane shows the retry pattern without a
			// wall of zero-width spans.
			tr.Instant("claim", job.Key, obs.Arg{Name: "state", Value: "busy"})
			r.met.deferred.Inc()
			return
		}
		status := "run"
		switch {
		case err != nil:
			status = "error"
		case cached:
			status = "cached"
		}
		sp.End(obs.Arg{Name: "status", Value: status})
	}()
	start := time.Now()
	claimed := false
	// A panic in one of the job's hooks (or in a store or claimer under
	// them) is that job's error: dependents skip, sibling jobs finish, the
	// campaign returns, and a held claim goes back unfinished so another
	// process may take the job.
	defer func() {
		if p := recover(); p != nil {
			v, cached, busy = nil, false, false
			elapsed = time.Since(start)
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			if claimed {
				// The job already has its error; a lease that could not be
				// released goes stale and is stolen.
				_ = r.cfg.Claimer.Release(job.Key, job.Hash, false)
			}
		}
	}()
	checkpointed := job.Hash != "" && r.cfg.Store != nil
	if checkpointed && job.Decode != nil {
		if data, ok, gerr := r.cfg.Store.Get(job.Key, job.Hash); gerr == nil && ok {
			v, derr := job.Decode(r.ctx, data)
			if derr == nil {
				return v, time.Since(start), true, false, nil
			}
			if errors.Is(derr, ErrReplay) {
				return nil, time.Since(start), true, false, derr
			}
		}
	}
	if r.cfg.Claimer != nil && checkpointed && job.Encode != nil && job.Decode != nil {
		state, cerr := r.cfg.Claimer.TryClaim(job.Key, job.Hash)
		if cerr != nil {
			return nil, time.Since(start), false, false, fmt.Errorf("claim: %w", cerr)
		}
		switch state {
		case ClaimBusy:
			return nil, 0, false, true, nil
		case ClaimDone:
			// The store holds the payload another process saved. A decode
			// failure here is a loud job error, not a cache miss: re-running
			// a job the protocol proved completed elsewhere would duplicate
			// its execution (and its replayed rows).
			data, ok, gerr := r.cfg.Store.Get(job.Key, job.Hash)
			if gerr != nil || !ok {
				return nil, time.Since(start), false, false,
					fmt.Errorf("claim reported done but store get failed (ok=%v): %w", ok, gerr)
			}
			dv, derr := job.Decode(r.ctx, data)
			if derr != nil {
				dv, derr = nil, fmt.Errorf("claimed checkpoint decode: %w", derr)
			}
			return dv, time.Since(start), true, false, derr
		case ClaimRun:
			claimed = true
		}
	}
	v, err = job.Run(r.ctx, deps)
	if err == nil && checkpointed && job.Encode != nil {
		if data, eerr := job.Encode(v); eerr != nil {
			err = fmt.Errorf("checkpoint encode: %w", eerr)
		} else if perr := r.cfg.Store.Put(job.Key, job.Hash, data); perr != nil {
			err = fmt.Errorf("checkpoint save: %w", perr)
		}
	}
	if claimed {
		claimed = false
		if rerr := r.cfg.Claimer.Release(job.Key, job.Hash, err == nil); rerr != nil && err == nil {
			err = fmt.Errorf("claim release: %w", rerr)
		}
	}
	if err != nil {
		v = nil
	}
	return v, time.Since(start), false, false, err
}

// settleLocked records a job's outcome, releases or skips its dependents,
// and emits the progress event. Caller holds r.mu.
func (r *runState) settleLocked(i int, v any, err error, elapsed time.Duration, cached bool) {
	r.results[i].Value = v
	r.results[i].Err = err
	r.results[i].Elapsed = elapsed
	r.results[i].Cached = cached
	r.states[i].settled = true
	r.jobs[i] = Job{Key: r.jobs[i].Key} // release the job's closures
	r.done++
	r.met.settled.Inc()
	if cached {
		r.met.cached.Inc()
	}
	r.met.jobUS.Observe(float64(elapsed) / 1e3)
	if err != nil {
		r.met.failed.Inc()
		r.skipDependentsLocked(i)
	} else {
		for _, d := range r.states[i].dependents {
			r.states[d].waiting--
			if r.states[d].waiting == 0 {
				r.insertReadyLocked(d)
			}
		}
	}
	if r.cfg.OnProgress != nil {
		r.pending = append(r.pending, Event{
			Key: r.results[i].Key, Err: err, Elapsed: elapsed,
			Done: r.done, Total: r.total, Cached: cached,
		})
	}
	r.cond.Broadcast()
}

// skipDependentsLocked settles every job downstream of a failed one with
// ErrDependency, transitively.
func (r *runState) skipDependentsLocked(failed int) {
	for _, d := range r.states[failed].dependents {
		if r.states[d].settled {
			continue
		}
		r.states[d].settled = true
		r.results[d].Err = fmt.Errorf("%w: %q", ErrDependency, r.results[failed].Key)
		r.done++
		r.met.settled.Inc()
		r.met.skipped.Inc()
		if r.cfg.OnProgress != nil {
			r.pending = append(r.pending, Event{
				Key: r.results[d].Key, Err: r.results[d].Err,
				Done: r.done, Total: r.total,
			})
		}
		r.skipDependentsLocked(d)
	}
}

// insertReadyLocked adds index i to the ready list keeping it ascending, so
// workers always claim the earliest-submitted runnable job.
func (r *runState) insertReadyLocked(i int) {
	at := sort.SearchInts(r.ready, i)
	r.ready = append(r.ready, 0)
	copy(r.ready[at+1:], r.ready[at:])
	r.ready[at] = i
}

// checkAcyclic rejects dependency cycles with a Kahn pass over the
// already-built dependents adjacency, O(jobs + edges).
func checkAcyclic(jobs []Job, states []state) error {
	waiting := make([]int, len(jobs))
	var queue []int
	for i := range states {
		waiting[i] = states[i].waiting
		if waiting[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range states[i].dependents {
			waiting[d]--
			if waiting[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != len(jobs) {
		var cyclic []string
		for i, j := range jobs {
			if waiting[i] > 0 {
				cyclic = append(cyclic, j.Key)
			}
		}
		return fmt.Errorf("campaign: dependency cycle among %v", cyclic)
	}
	return nil
}
