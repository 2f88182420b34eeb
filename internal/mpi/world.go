// Package mpi implements the MPI-1 subset that CCAFFEINE's SCMD (Single
// Component Multiple Data) execution model relies on, running over
// goroutines inside one process: blocking and nonblocking point-to-point
// (including MPI_Waitsome, the paper's hottest MPI call), the collectives
// Barrier, Allreduce, Bcast and Allgather, and communicator duplication:
// the calls the case study, the benchmark and the scheduler tests make.
// Every communicator spans the world.
//
// Each simulated rank owns a platform.Proc (virtual clock, cache, RNG) and
// a tau.Profile; every MPI entry point is wrapped in a TAU timer of group
// "MPI", exactly like TAU's MPI profiling interface, so the Fig. 3 profile
// rows and the Mastermind's "time in MPI" query come out of the same
// mechanism the paper used.
//
// Scheduling is fully deterministic under two mechanisms, selected by
// SchedulerMode:
//
//   - The conservative scheduler runs rank goroutines concurrently between
//     communication events: compute segments (which touch only rank-local
//     state — clock, cache, RNG, profile) execute on real cores, at most
//     MaxParallelRanks at a time, while every operation on order-sensitive
//     shared state (mailboxes, collectives, communicator ids, the
//     collective-cost RNG) commits under a token: whenever the token holder
//     blocks inside MPI, the token passes to the runnable rank with the
//     smallest virtual clock. Sends are buffered rank-locally during
//     run-ahead and flushed at the rank's next commit turn. Message arrival
//     times are computed from the sender's clock plus the network model, so
//     "time spent waiting in MPI" is the difference between virtual arrival
//     and the receiver's entry time — deterministic run to run. Serial (the
//     zero value) is this scheduler with one compute slot, so a world uses
//     one core; ConservativeParallel is it with MaxParallelRanks slots.
//   - OptimisticParallel additionally speculates past order-sensitive
//     operations under an undo log and rolls a rank back on a mis-match
//     (optimistic.go); what commits is the serial result, bit for bit.
//
// Every mode yields the same virtual clocks, profiles and message orders,
// bit for bit: parallelism is purely a wall-clock optimization.
package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tau"
)

// rank execution states for the token scheduler.
const (
	stReady = iota
	stRunning
	stBlocked
	stDone
)

// SchedulerMode selects how World.Run schedules its rank goroutines. All
// modes produce bit-for-bit identical virtual clocks, profiles and
// message orders; they differ only in wall-clock time and core usage.
type SchedulerMode int

const (
	// Serial is the conservative scheduler with one compute slot: exactly
	// one rank goroutine executes at a time, so a world uses one core
	// regardless of size.
	Serial SchedulerMode = iota
	// ConservativeParallel executes rank compute segments concurrently,
	// synchronizing only at communication events: each rank runs ahead to
	// its next interaction (its lookahead horizon) on its own goroutine,
	// and shared-state commits replay the serial token order exactly.
	// MaxParallelRanks caps its compute slots.
	ConservativeParallel
	// OptimisticParallel speculates past order-sensitive operations in the
	// Time Warp style: ranks run ahead publishing sends immediately, match
	// wildcard receives tentatively under an undo log, and a commit
	// automaton replays the serial token order over the recorded event
	// streams, validating every speculative outcome before the operation
	// returns — rolling the rank back and re-executing on a mis-match.
	// Results stay bit-identical to Serial; only wall-clock time changes.
	OptimisticParallel
)

// schedulerModeTokens is the single registry of valid scheduler modes and
// their stable string tokens. String, Validate and ParseSched all read
// this table, so adding a mode cannot silently produce "SchedulerMode(n)"
// scenario keys or pass validation unchecked.
var schedulerModeTokens = map[SchedulerMode]string{
	Serial:               "serial",
	ConservativeParallel: "par",
	OptimisticParallel:   "opt",
}

// String returns the mode's stable token ("serial", "par", "opt"), the
// stem of FormatSched's tokens.
func (m SchedulerMode) String() string {
	if tok, ok := schedulerModeTokens[m]; ok {
		return tok
	}
	return fmt.Sprintf("SchedulerMode(%d)", int(m))
}

// FormatSched renders a scheduler choice — a mode and its parallel-rank
// cap, 0 = no cap — as its stable token: "serial", "par", "par4", "opt",
// "opt8", the spelling of the -rankmode flag. ParseSched reads it back.
// The serial scheduler's cap is always one, so it never reaches the token.
func FormatSched(mode SchedulerMode, maxRanks int) string {
	tok := mode.String()
	if mode != Serial && maxRanks > 0 {
		tok += strconv.Itoa(maxRanks)
	}
	return tok
}

// ParseSched is FormatSched's inverse: it accepts exactly the tokens
// FormatSched produces and returns the arguments of WithScheduler.
func ParseSched(token string) (SchedulerMode, int, error) {
	for mode, name := range schedulerModeTokens {
		suffix, ok := strings.CutPrefix(token, name)
		if !ok {
			continue
		}
		if suffix == "" {
			return mode, 0, nil
		}
		if n, err := strconv.Atoi(suffix); err == nil && FormatSched(mode, n) == token {
			return mode, n, nil
		}
	}
	return 0, 0, fmt.Errorf("mpi: bad scheduler token %q (want serial, par or opt, or par<N>/opt<N> to cap concurrent ranks at N >= 1)", token)
}

// WorldConfig assembles the simulated machine: P ranks, each with the given
// CPU and cache, connected by the given network. NewWorld builds exactly
// this machine and fills in no defaults; DefaultConfig is the calibrated one.
type WorldConfig struct {
	// Procs is the number of SCMD ranks (the paper used 3).
	Procs int
	// CPU is the per-rank processor model.
	CPU platform.CPUModel
	// Cache is the per-rank cache geometry.
	Cache cache.Config
	// Net is the interconnect model.
	Net netmodel.Model
	// Seed makes all random streams (network noise) reproducible.
	Seed int64
	// InitUS and FinalizeUS are the one-time costs charged by MPI_Init and
	// MPI_Finalize (startup/teardown of the parallel machine). DefaultConfig
	// sets the Fig. 3 magnitudes.
	InitUS     float64
	FinalizeUS float64
	// Sched selects the rank scheduler. The zero value, Serial, is the
	// conservative scheduler with one compute slot; ConservativeParallel and
	// OptimisticParallel run rank compute concurrently with bit-for-bit
	// identical results.
	Sched SchedulerMode
	// MaxParallelRanks caps how many ranks compute concurrently under the
	// parallel schedulers. Zero means no cap (the Go runtime's GOMAXPROCS
	// governs actual parallelism). Serial is a cap of one whatever this
	// holds.
	MaxParallelRanks int
}

// Validate reports whether the configuration describes a runnable machine.
// It catches misconfigurations — a non-positive rank count, a negative
// parallel-rank cap, an unknown scheduler mode, a clock that is not
// positive, an impossible cache geometry — with a clear error before any
// simulation state exists, instead of a late panic deep inside a run.
func (c WorldConfig) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("mpi: invalid world config: Procs %d (world size must be positive)", c.Procs)
	}
	if _, ok := schedulerModeTokens[c.Sched]; !ok {
		return fmt.Errorf("mpi: invalid world config: unknown scheduler mode %d", int(c.Sched))
	}
	if c.MaxParallelRanks < 0 {
		return fmt.Errorf("mpi: invalid world config: MaxParallelRanks %d (must be >= 0; 0 means no cap)", c.MaxParallelRanks)
	}
	// Written so that a NaN clock is rejected with the non-positive ones.
	if !(c.CPU.ClockGHz > 0) {
		return fmt.Errorf("mpi: invalid world config: CPU.ClockGHz %g (must be > 0)", c.CPU.ClockGHz)
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("mpi: invalid world config: %w", err)
	}
	return nil
}

// WithScheduler returns the config with the given scheduler mode and
// parallel-rank cap, the pair ParseSched returns. For the parallel modes,
// n > 0 caps concurrency at n ranks and n <= 0 means no cap; Serial's cap
// is always one, so the field is cleared. Results are bit-identical in
// every mode; only wall-clock time changes.
func (c WorldConfig) WithScheduler(mode SchedulerMode, n int) WorldConfig {
	c.Sched = mode
	if mode != Serial && n > 0 {
		c.MaxParallelRanks = n
	} else {
		c.MaxParallelRanks = 0
	}
	return c
}

// DefaultConfig returns the paper-calibrated 3-rank world.
func DefaultConfig() WorldConfig {
	return WorldConfig{
		Procs:      3,
		CPU:        platform.XeonModel(),
		Cache:      cache.XeonL2(),
		Net:        netmodel.FastEthernet(),
		Seed:       1,
		InitUS:     600_000,
		FinalizeUS: 140_000,
	}
}

type mailKey struct {
	comm int
	dst  int // world rank of the receiver
}

type message struct {
	src    int // rank within the communicator
	tag    int
	data   []float64
	arrive float64 // virtual arrival time at the destination
	seq    uint64
	// taken marks a published message tentatively consumed by a
	// speculative receive under the optimistic scheduler: it stays out of
	// later speculative picks while remaining visible to the committed-order
	// replay, which performs the authoritative match.
	taken bool
}

// A message is host memory the world recycles: once nothing can read it
// again, its header and payload go back to the world's free list
// (releaseLocked), and a sender refills its own list from there under the
// world lock (refillLocked), so that a conservative rank running ahead
// without the lock takes its next message from a list no other rank
// touches. Under the conservative scheduler a message's last reader is the
// receive that consumes it; under the optimistic one, the rank reclaiming
// the committed receive event that matched it (optState.reclaimLocked).

// poisonMessages is PoisonReleasedMessages' switch.
var poisonMessages atomic.Bool

// PoisonReleasedMessages is a test hook: until the returned function is
// called, every released message has its payload and arrival time
// overwritten with signalling NaNs, so a reader that touches a message
// after its last use reads wrong bytes instead of quietly reading the old
// ones. Results must not depend on it; nothing but tests may call it.
func PoisonReleasedMessages() (undo func()) {
	poisonMessages.Store(true)
	return func() { poisonMessages.Store(false) }
}

// messagePoisonBits is a signalling NaN with a payload no arithmetic produces.
const messagePoisonBits = 0x7ff4_dead_beef_0bad

// newMessage returns the rank's next outgoing message, taken from its free
// list when that holds one and carved from its slab of 16 otherwise; an
// optimistic world also carves payload storage (optState.carveLocked).
// Owner-rank access only.
func (r *Rank) newMessage(src, tag int, data []float64, arrive float64) *message {
	var m *message
	if n := len(r.msgs); n > 0 {
		m, r.msgs = r.msgs[n-1], r.msgs[:n-1]
	} else {
		if len(r.msgSlab) == 0 {
			r.msgSlab = make([]message, 16)
		}
		m, r.msgSlab = &r.msgSlab[0], r.msgSlab[1:]
	}
	buf := m.data[:0]
	if cap(buf) < len(data) && r.world.opt {
		buf = r.world.o.carveLocked(len(data)) // an optimistic send holds w.mu
	}
	*m = message{src: src, tag: tag, data: append(buf, data...), arrive: arrive}
	return m
}

// releaseLocked returns a message nothing reads any more to the world's
// free list. Caller holds w.mu.
func (w *World) releaseLocked(m *message) {
	if poisonMessages.Load() {
		poison := math.Float64frombits(messagePoisonBits)
		for i := range m.data {
			m.data[i] = poison
		}
		m.arrive = poison
	}
	w.freeMsgs = append(w.freeMsgs, m)
}

// refillLocked tops rank r's free list up to n messages from the world's.
// Caller holds w.mu.
func (w *World) refillLocked(r *Rank, n int) {
	k := min(n-len(r.msgs), len(w.freeMsgs))
	if k <= 0 {
		return
	}
	r.msgs = append(r.msgs, w.freeMsgs[len(w.freeMsgs)-k:]...)
	w.freeMsgs = w.freeMsgs[:len(w.freeMsgs)-k]
}

// pendingSend is a send buffered during conservative run-ahead: the
// message is fully computed (payload copy, arrival time from the sender's
// clock and RNG) but not yet visible to receivers. It lands in the world
// mailbox at the sender's next commit turn, in program order, so the
// mailbox evolves exactly as in the serial order.
type pendingSend struct {
	key mailKey
	msg *message
}

// blockDesc describes what a blocked rank is waiting on: the deadlock report
// renders it and the schedulers evaluate it (holdsLocked) to decide when the
// rank may run again. It is a small value stored on every block (the hot
// path) — a predicate closure per blocking call would be a heap allocation
// per call.
type blockDesc struct {
	op       string // MPI entry point, e.g. "MPI_Recv()"
	comm     int
	src, tag int
	pending  int // pending receives (Waitall/Waitsome)

	// What ends the wait. Conservative: the collective leaving
	// generation gen when cs is set, a queued match for any pending receive
	// of reqs when that is set, else a queued (src, tag) match on comm.
	// Optimistic: see optState.readyLocked.
	cs   *collState
	gen  uint64
	reqs []*Request
	ev   *specEvent
	slot int
}

// holdsLocked reports whether what blocked rank r is waiting on has happened.
func (w *World) holdsLocked(r int) bool {
	d := &w.blockedOn[r]
	switch {
	case w.opt:
		return w.o.readyLocked(r, d)
	case d.cs != nil:
		return d.cs.gen > d.gen
	case d.reqs != nil:
		for _, q := range d.reqs {
			if q.isRecv && !q.done && w.hasMatchLocked(mailKey{q.comm.id, r}, q.src, q.tag) {
				return true
			}
		}
		return false
	}
	return w.hasMatchLocked(mailKey{d.comm, r}, d.src, d.tag)
}

// String renders the description for the deadlock report.
func (d blockDesc) String() string {
	if d.op == "" {
		return "?"
	}
	name := strings.TrimSuffix(d.op, "()")
	switch {
	case d.pending > 0:
		return fmt.Sprintf("%s(%d pending receives) on comm %d", name, d.pending, d.comm)
	case strings.Contains(d.op, "Recv") || strings.Contains(d.op, "Wait"):
		src := "any"
		if d.src != AnySource {
			src = fmt.Sprintf("%d", d.src)
		}
		tag := "any"
		if d.tag != AnyTag {
			tag = fmt.Sprintf("%d", d.tag)
		}
		return fmt.Sprintf("%s(src=%s, tag=%s) on comm %d", name, src, tag, d.comm)
	default:
		return fmt.Sprintf("%s on comm %d", name, d.comm)
	}
}

// World is the simulated parallel machine. Create one with NewWorld, then
// call Run with the SCMD body. All exported methods on Comm must be called
// from within the body, on the goroutine Run started for that rank.
type World struct {
	cfg WorldConfig
	opt bool // cfg.Sched == OptimisticParallel

	// o holds the optimistic scheduler's shared state (published messages,
	// per-rank event streams, the commit automaton). Nil unless opt.
	o *optState

	mu sync.Mutex
	// Conservative ranks wait for the token each on their own turn cond, so
	// a hand-off wakes only the rank it is for; cond is shared by compute
	// slot waiters and by every parked optimistic rank (each a potential
	// helper of the commit automaton).
	cond      *sync.Cond
	turn      []sync.Cond
	ranks     []*Rank
	status    []int
	blockedOn []blockDesc
	current   int
	aborted   bool

	// vclock is each conservative rank's clock as committed at its last
	// scheduling point: while a rank computes ahead its real clock advances
	// without the lock, so the scheduler must never read it — vclock is the
	// serial-replay value the token discipline needs. The slot fields bound
	// concurrent compute: one slot under Serial, MaxParallelRanks (0 = no
	// bound) otherwise.
	vclock   []float64
	slots    int
	active   int
	slotHeld []bool

	mailboxes map[mailKey][]*message
	seq       uint64
	freeMsgs  []*message // released messages, for refillLocked

	colls      map[int]*collState
	nextCommID int
	rng        *rand.Rand

	panics []error

	// Observability (nil/zero when the global observer is disabled at
	// NewWorld). trk holds one trace lane per rank; met the cached
	// registry instruments. Recording is strictly write-only — nothing
	// here is ever read back into scheduling decisions, so observed and
	// unobserved worlds produce bit-identical results.
	trk []*obs.Track
	met worldMetrics
}

// worldMetrics caches the registry instruments a world records into.
// The zero value (all nil) makes every update a no-op.
type worldMetrics struct {
	worlds        *obs.Counter
	grants        *obs.Counter
	specPub       *obs.Counter
	specPipe      *obs.Counter
	specOps       *obs.Counter
	specCommit    *obs.Counter
	conflicts     *obs.Counter
	rollbacks     *obs.Counter
	windowStalls  *obs.Counter
	collHits      *obs.Counter
	collRollbacks *obs.Counter
	reexecUS      *obs.Histogram
}

// worldSeq numbers observed worlds so their trace tracks stay distinct
// when one process runs many worlds. Only advanced when an observer is
// active; it never influences simulation state.
var worldSeq atomic.Uint64

// rankTrack returns rank r's trace lane, or nil when unobserved.
func (w *World) rankTrack(r int) *obs.Track {
	if w.trk == nil {
		return nil
	}
	return w.trk[r]
}

// Rank is the execution context handed to the SCMD body for one rank: its
// world communicator, platform processor and TAU profile.
type Rank struct {
	world *World
	rank  int

	// pending buffers sends during conservative run-ahead (owner-rank access
	// only; flushed under the world lock at the rank's commit turns). msgs
	// is the rank's free list of messages, refilled under the world lock.
	pending []pendingSend
	msgs    []*message
	msgSlab []message

	// lastOpEnd is the tracer clock when this rank's previous MPI entry
	// point returned (owner-rank access only; meaningful only when the
	// world is observed). The gap to the next entry is the rank's compute
	// segment, recorded as a span.
	lastOpEnd int64

	// Optimistic-scheduler storage kept per rank, not allocated per call: a
	// blocking receive's request and one-element request list, the undo log
	// of the rank's open speculation.
	recvReq Request
	oneReq  [1]*Request
	undo    specUndo

	// Comm is the rank's MPI_COMM_WORLD analog.
	Comm *Comm
	// Proc is the rank's simulated processor (clock, cache, RNG, heap).
	Proc *platform.Proc
	// Prof is the rank's TAU measurement context. MPI timers appear here
	// under group "MPI".
	Prof *tau.Profile
}

// Rank returns this context's world rank.
func (r *Rank) Rank() int { return r.rank }

// NewWorld builds the simulated machine. It panics with the Validate error
// on a misconfiguration (non-positive rank count, negative parallel-rank
// cap, ...), mirroring an mpirun misconfiguration; callers that want an
// error instead should call cfg.Validate first (grid expansion does).
func NewWorld(cfg WorldConfig) *World {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	w := &World{
		cfg:        cfg,
		opt:        cfg.Sched == OptimisticParallel,
		current:    -1,
		mailboxes:  make(map[mailKey][]*message),
		colls:      make(map[int]*collState),
		nextCommID: 1,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x51ca5e)),
		status:     make([]int, cfg.Procs),
		blockedOn:  make([]blockDesc, cfg.Procs),
		panics:     make([]error, cfg.Procs),
		slots:      cfg.MaxParallelRanks,
		slotHeld:   make([]bool, cfg.Procs),
	}
	if cfg.Sched == Serial {
		w.slots = 1
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < cfg.Procs; i++ {
		proc := platform.NewProc(i, cfg.CPU, cfg.Cache, cfg.Seed)
		prof := tau.NewProfile(proc.Now)
		prof.RegisterMetric("PAPI_L2_DCM", func() float64 { return float64(proc.Counters().L2DCM) })
		prof.RegisterMetric("PAPI_FP_OPS", func() float64 { return float64(proc.Counters().FPOps) })
		r := &Rank{world: w, rank: i, Proc: proc, Prof: prof}
		r.Comm = &Comm{world: w, id: 0, r: r}
		w.ranks = append(w.ranks, r)
		w.status[i] = stReady
	}
	if w.opt {
		w.o = newOptState(w)
	} else {
		w.turn = make([]sync.Cond, cfg.Procs)
		w.vclock = make([]float64, cfg.Procs)
		for i, r := range w.ranks {
			w.turn[i].L = &w.mu
			w.vclock[i] = r.Proc.Now()
		}
	}
	if o := obs.Active(); o != nil {
		id := worldSeq.Add(1)
		w.trk = make([]*obs.Track, cfg.Procs)
		for i := range w.trk {
			// One Track per rank, resolved once here and reused for every scheduler event.
			w.trk[i] = o.Tracer().Track("mpi", fmt.Sprintf("w%d rank %d", id, i))
		}
		reg := o.Metrics()
		w.met = worldMetrics{
			worlds:        reg.Counter("mpi_worlds_total"),
			grants:        reg.Counter("mpi_token_grants_total"),
			specPub:       reg.Counter("mpi_spec_published_sends_total"),
			specPipe:      reg.Counter("mpi_spec_pipelined_ops_total"),
			specOps:       reg.Counter("mpi_spec_speculated_ops_total"),
			specCommit:    reg.Counter("mpi_spec_committed_ops_total"),
			conflicts:     reg.Counter("mpi_spec_conflicts_total"),
			rollbacks:     reg.Counter("mpi_spec_rollbacks_total"),
			windowStalls:  reg.Counter("mpi_spec_window_stalls_total"),
			collHits:      reg.Counter("mpi_spec_coll_hits_total"),
			collRollbacks: reg.Counter("mpi_spec_coll_rollbacks_total"),
			reexecUS:      reg.Histogram("mpi_spec_reexecuted_us", obs.LatencyBucketsUS),
		}
	}
	return w
}

// Ranks returns the per-rank contexts (valid after Run for inspection).
func (w *World) Ranks() []*Rank { return w.ranks }

// Profiles returns the per-rank TAU profiles, in rank order.
func (w *World) Profiles() []*tau.Profile {
	out := make([]*tau.Profile, len(w.ranks))
	for i, r := range w.ranks {
		out[i] = r.Prof
	}
	return out
}

// Procs returns the per-rank platform processors, in rank order.
func (w *World) Procs() []*platform.Proc {
	out := make([]*platform.Proc, len(w.ranks))
	for i, r := range w.ranks {
		out[i] = r.Proc
	}
	return out
}

// abortPanic is the sentinel thrown to unwind ranks parked inside MPI when
// the world aborts (deadlock or another rank's panic). It carries no
// diagnostic value of its own and never masks the original error.
type abortPanic struct{}

// Run executes body once per rank (SCMD) and blocks until every rank
// finishes. It returns the first rank panic as an error, or a deadlock
// error if all live ranks blocked on unsatisfiable conditions. A World can
// only be Run once.
//
// Every goroutine enters body as soon as it holds a compute slot. Under the
// conservative scheduler (Serial and ConservativeParallel) it synchronizes
// with the replayed token order only at communication events; a finishing
// rank commits its buffered sends at its token turn before going Done,
// exactly where the serial schedule would have placed them. Under
// OptimisticParallel goroutines publish sends as they happen and
// speculate past order-sensitive receives; the commit automaton validates
// the recorded event streams against the serial order and finishing ranks
// simply mark their streams complete — the automaton commits their tails
// in serial order.
func (w *World) Run(body func(*Rank)) error {
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Procs; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				e := recover()
				w.mu.Lock()
				if _, isAbort := e.(abortPanic); e != nil && !isAbort {
					w.panics[rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, e, debug.Stack())
					w.aborted = true
				}
				w.status[rank] = stDone
				w.releaseSlotLocked(rank)
				if w.opt {
					w.o.finished[rank] = true
					w.o.parked[rank] = false
					w.cond.Broadcast()
				} else {
					w.advanceLocked()
				}
				w.mu.Unlock()
			}()
			w.mu.Lock()
			started := w.acquireSlotLocked(rank)
			w.mu.Unlock()
			if !started {
				panic(abortPanic{})
			}
			body(w.ranks[rank])
			if !w.opt {
				// Ordered completion: wait for the commit token and flush
				// any still-buffered sends before the deferred Done.
				w.lockShared(rank)
				w.mu.Unlock()
			}
		}(i)
	}
	if !w.opt {
		w.mu.Lock()
		w.advanceLocked()
		w.mu.Unlock()
	}
	wg.Wait()
	if w.opt {
		// Drain the commit automaton so the committed world state (mailbox
		// residue, communicator ids, telemetry) reflects the full serial
		// order even though every rank has already returned.
		w.mu.Lock()
		if !w.aborted {
			for w.autoStepLocked() {
			}
		}
		w.mu.Unlock()
	}
	if w.met.worlds != nil {
		// Fold the run's speculation telemetry into the registry, so
		// conflict/rollback rates are visible without a deadlock dump.
		w.met.worlds.Inc()
		if w.opt {
			s := w.SpecStats()
			w.met.specPub.Add(s.PublishedSends)
			w.met.specPipe.Add(s.PipelinedOps)
			w.met.specOps.Add(s.SpeculatedOps)
			w.met.specCommit.Add(s.CommittedOps)
			w.met.conflicts.Add(s.Conflicts)
			w.met.rollbacks.Add(s.Rollbacks)
			w.met.windowStalls.Add(s.WindowStalls)
			w.met.collHits.Add(s.SpecCollHits)
			w.met.collRollbacks.Add(s.SpecCollRollbacks)
			w.met.reexecUS.Observe(s.ReexecutedUS)
		}
	}
	for _, err := range w.panics {
		if err != nil {
			return err
		}
	}
	return nil
}

// wakeAllLocked wakes every waiting goroutine, whatever it waits on: the
// world aborted, and each must see that and unwind.
func (w *World) wakeAllLocked() {
	for r := range w.turn {
		w.turn[r].Signal()
	}
	w.cond.Broadcast()
}

// lockShared acquires the world's shared state for a conservative rank's
// MPI operation that reads or writes order-sensitive global state
// (mailboxes, collectives, communicator ids, the collective-cost RNG): the
// mutex, then the commit token — the rank's turn in the replayed serial
// order — and then it flushes the rank's buffered sends, so every shared
// mutation happens in exactly the serial order. Callers must pair it with
// a deferred w.mu.Unlock immediately after it returns.
func (w *World) lockShared(rank int) {
	w.mu.Lock()
	if !w.awaitTurnLocked(rank) {
		w.mu.Unlock()
		panic(abortPanic{})
	}
	w.flushSendsLocked(rank)
}

// awaitTurnLocked returns once the scheduler has granted rank the commit
// token and the rank holds a compute slot. A rank that must wait gives its
// slot up meanwhile, so no waiting rank keeps the token holder from one.
// A grant that finds the rank still computing signals nobody and is not
// lost: current is re-read under the lock before every wait. It reports
// false when the world aborted.
func (w *World) awaitTurnLocked(rank int) bool {
	if w.current != rank {
		w.releaseSlotLocked(rank)
		for w.current != rank {
			if w.aborted {
				return false
			}
			w.turn[rank].Wait()
		}
		if !w.acquireSlotLocked(rank) {
			return false
		}
	}
	w.status[rank] = stRunning
	return true
}

// flushSendsLocked commits the rank's buffered sends to the world
// mailboxes in program order, and tops the rank's free list of messages up
// to as many as it just sent. Caller must hold w.mu and the commit token.
func (w *World) flushSendsLocked(rank int) {
	r := w.ranks[rank]
	for _, ps := range r.pending {
		w.enqueueLocked(ps.key, ps.msg)
	}
	w.refillLocked(r, len(r.pending))
	r.pending = r.pending[:0]
}

// acquireSlotLocked claims a compute slot, waiting while all are taken. It
// reports false when the world aborted while waiting. A no-op (true) when
// the rank already holds a slot.
func (w *World) acquireSlotLocked(rank int) bool {
	if w.slotHeld[rank] {
		return !w.aborted
	}
	for w.slots > 0 && w.active >= w.slots {
		if w.aborted {
			return false
		}
		w.cond.Wait()
	}
	if w.aborted {
		return false
	}
	w.active++
	w.slotHeld[rank] = true
	return true
}

// releaseSlotLocked returns the rank's compute slot, waking slot waiters.
func (w *World) releaseSlotLocked(rank int) {
	if !w.slotHeld[rank] {
		return
	}
	w.active--
	w.slotHeld[rank] = false
	w.cond.Broadcast()
}

// schedClockLocked returns rank r's virtual clock as the scheduler may
// safely observe it. A conservative rank that is neither blocked nor done
// may be advancing its clock concurrently without the lock, so the
// scheduler reads the value committed at the rank's last scheduling point
// instead — which is exactly the clock the serial order needs. Optimistic
// clocks are only consulted for diagnostics (deadlock report, lookahead
// horizon), when every live rank is parked and its Proc is quiescent.
func (w *World) schedClockLocked(r int) float64 {
	if w.opt || w.status[r] == stBlocked || w.status[r] == stDone {
		return w.ranks[r].Proc.Now()
	}
	return w.vclock[r]
}

// blockOn parks the running rank until what on describes has happened,
// handing the token to the runnable rank with the smallest virtual clock
// meanwhile. Caller must hold w.mu and be the current rank.
func (w *World) blockOn(rank int, on blockDesc) {
	w.blockedOn[rank] = on
	if !w.holdsLocked(rank) {
		w.vclock[rank] = w.ranks[rank].Proc.Now()
		w.status[rank] = stBlocked
		w.advanceLocked()
		if !w.awaitTurnLocked(rank) {
			panic(abortPanic{})
		}
	}
}

// advanceLocked promotes blocked ranks whose predicates now hold and grants
// the token to the ready rank with the smallest (clock, rank). If no rank
// can run and not all are done, the world is deadlocked: every parked rank
// is woken into a panic carrying the per-rank state dump and the pending
// lookahead horizon.
func (w *World) advanceLocked() {
	if w.aborted {
		w.current = -1
		w.wakeAllLocked()
		return
	}
	for r := range w.status {
		if w.status[r] == stBlocked && w.holdsLocked(r) {
			w.status[r] = stReady
		}
	}
	next, best := -1, 0.0
	allDone := true
	for r := range w.status {
		switch w.status[r] {
		case stReady:
			allDone = false
			t := w.schedClockLocked(r)
			if next == -1 || t < best {
				next, best = r, t
			}
		case stBlocked, stRunning:
			allDone = false
		}
	}
	w.current = next
	if next != -1 {
		w.met.grants.Inc()
		w.turn[next].Signal()
	} else if !allDone {
		// Every live rank is blocked: deadlock. Abort the world so the
		// parked goroutines panic with diagnostics instead of hanging.
		w.aborted = true
		report := w.deadlockReportLocked()
		for r := range w.status {
			if w.status[r] == stBlocked {
				w.panics[r] = fmt.Errorf("mpi: deadlock: rank %d blocked at t=%.3fus in %s with no matching communication\n%s",
					r, w.ranks[r].Proc.Now(), w.blockedOn[r], report)
			}
		}
		w.wakeAllLocked()
	}
}

// deadlockReportLocked renders the per-rank state dump plus the pending
// lookahead horizon that advanceLocked attaches to deadlock errors.
func (w *World) deadlockReportLocked() string {
	var sb strings.Builder
	sb.WriteString("world state at deadlock:\n")
	for r := range w.status {
		t := w.schedClockLocked(r)
		switch w.status[r] {
		case stDone:
			fmt.Fprintf(&sb, "  rank %d: done at t=%.3fus\n", r, t)
		case stBlocked:
			fmt.Fprintf(&sb, "  rank %d: blocked at t=%.3fus in %s\n", r, t, w.blockedOn[r])
		default:
			fmt.Fprintf(&sb, "  rank %d: runnable at t=%.3fus\n", r, t)
		}
	}
	if earliest, n := w.pendingArrivalLocked(); n > 0 {
		fmt.Fprintf(&sb, "  %d undelivered message(s), earliest arrival t=%.3fus (none match a posted receive)\n", n, earliest)
	} else {
		sb.WriteString("  no messages in flight\n")
	}
	if h := w.lookaheadHorizonLocked(); !math.IsInf(h, 1) {
		fmt.Fprintf(&sb, "  pending lookahead horizon: t=%.3fus (min of queued arrivals and live clocks + %.3fus net latency)\n",
			h, w.cfg.Net.LatencyUS)
	}
	if w.o != nil {
		s := w.o.stats
		fmt.Fprintf(&sb, "  optimistic speculation: %d sends published, %d ops pipelined, %d speculated, %d committed, %d conflicts, %d rollbacks, %.3fus re-executed, %d window stalls\n",
			s.PublishedSends, s.PipelinedOps, s.SpeculatedOps, s.CommittedOps, s.Conflicts, s.Rollbacks, s.ReexecutedUS, s.WindowStalls)
		fmt.Fprintf(&sb, "  speculation window: %d events; speculative collectives: %d hits, %d rollbacks\n",
			w.o.win, s.SpecCollHits, s.SpecCollRollbacks)
	}
	return sb.String()
}

// pendingArrivalLocked returns the earliest virtual arrival time over all
// queued (undelivered) messages and how many are queued.
func (w *World) pendingArrivalLocked() (earliest float64, n int) {
	earliest = math.Inf(1)
	for _, box := range w.mailboxes {
		for _, m := range box {
			n++
			if m.arrive < earliest {
				earliest = m.arrive
			}
		}
	}
	if w.o != nil {
		// Published messages whose send has not yet committed are in flight
		// too; committed ones already appear in the mailboxes above.
		for _, box := range w.o.pub {
			for _, m := range box {
				if m.seq != 0 {
					continue
				}
				n++
				if m.arrive < earliest {
					earliest = m.arrive
				}
			}
		}
	}
	return earliest, n
}

// lookaheadHorizonLocked computes the conservative lookahead horizon: the
// earliest virtual time at which any parked rank could observe new input.
// It is the minimum over (a) queued message arrival times and (b) every
// live rank's committed clock plus the network model's minimum
// point-to-point latency — no rank can cause an event earlier than that.
// Ranks whose next interaction lies beyond this horizon are the ones the
// parallel scheduler lets run ahead concurrently.
func (w *World) lookaheadHorizonLocked() float64 {
	h, _ := w.pendingArrivalLocked()
	for r := range w.status {
		if w.status[r] == stDone {
			continue
		}
		if t := w.schedClockLocked(r) + w.cfg.Net.LatencyUS; t < h {
			h = t
		}
	}
	return h
}

// enqueueLocked places a message in a mailbox.
func (w *World) enqueueLocked(key mailKey, m *message) {
	w.seq++
	m.seq = w.seq
	w.mailboxes[key] = append(w.mailboxes[key], m)
}

// matchLocked removes and returns the first message matching (src, tag) in
// FIFO order, or nil.
func (w *World) matchLocked(key mailKey, src, tag int) *message {
	box := w.mailboxes[key]
	for i, m := range box {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			w.mailboxes[key] = slices.Delete(box, i, i+1)
			return m
		}
	}
	return nil
}

// hasMatchLocked reports whether a matching message is queued.
func (w *World) hasMatchLocked(key mailKey, src, tag int) bool {
	for _, m := range w.mailboxes[key] {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			return true
		}
	}
	return false
}
