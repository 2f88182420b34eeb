package mpi

// Optimistic (Time Warp) rank scheduler.
//
// Under OptimisticParallel every rank goroutine runs freely: sends publish
// immediately to a shared "published" view, receives from a specific source
// complete as soon as the matching message is published (the conflict-free
// fast path that buys pipelining), and wildcard receives speculate — they
// tentatively pick a published message under an undo log and park until the
// commit automaton validates the pick against the serial total order.
//
// The commit automaton replays the serial token discipline over per-rank
// event streams recorded at every MPI entry point: it grants the rank with
// the smallest committed (clock, rank), consumes that rank's events against
// the committed world state (mailboxes, collectives, communicator ids),
// and blocks the rank at events whose serial predicate fails — exactly the
// scheduling points the serial scheduler would take. Speculative outcomes
// that match the committed truth resolve; mismatches mark the event
// conflicted, and the owning rank rolls back (processor clock and counters,
// RNG stream, request state) and re-executes from the committed
// truth before its MPI call returns.
//
// Because every MPI operation returns only exact serial-equal results, rank
// local state is always exact at operation boundaries: published sends are
// always valid, rollbacks never cascade, and profiles, virtual clocks,
// message orders and rendered bytes stay bit-for-bit identical to Serial.
//
// There is no dedicated committer goroutine: any rank that parks inside an
// MPI operation helps drive the automaton while it waits. The speculation
// window bounds how far a rank's stream may outrun the commit frontier
// (guaranteeing quiescence for the deadlock check); it is fixed at
// specWindow events.
//
// Collectives complete speculatively once every member's contribution is
// published: the last arriver computes the results — a pure function of
// the contribution set — and a cost draw from a mirror of the shared
// collective-cost RNG. When the draw's commit-order index is provably
// pinned (no draw at all under zero noise, or every other communicator
// speculatively quiescent) every member runs ahead without waiting for
// the commit automaton; otherwise the draw is a provisional guess and
// members park under an undo log holding the contribution set, which the
// commit replay either validates (bitwise-equal leave time) or rolls back
// exactly.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/obs"
	"repro/internal/platform"
)

// specWindow caps how many recorded events a rank's stream may run ahead of
// the commit frontier before the rank parks. It bounds memory growth and
// guarantees every rank eventually parks, which the deadlock check relies
// on.
const specWindow = 4096

// Automaton view of a rank's scheduling state (mirrors the serial
// scheduler's stReady/stBlocked/stDone over the replayed order).
const (
	aReady = iota
	aBlocked
	aDone
)

// Lifecycle of a recorded event's validation.
const (
	esPending = iota
	esConflict
	esResolved
)

// evKind discriminates the recorded event types.
type evKind int

const (
	evSend evKind = iota
	evRecv
	evWaitsome
	evColl
	evKeyval
)

// SpecStats is the optimistic scheduler's speculation telemetry. All
// counters are totals over the run; the zero value is returned for worlds
// not using OptimisticParallel.
type SpecStats struct {
	// PublishedSends counts messages published ahead of their commit turn.
	PublishedSends uint64
	// PipelinedOps counts conflict-free operations (specific-source
	// receives, deterministic Waitsomes) completed without waiting for the
	// commit automaton — the scheduler's wall-clock win.
	PipelinedOps uint64
	// SpeculatedOps counts operations that took a checkpoint and
	// tentatively consumed published messages under an undo log.
	SpeculatedOps uint64
	// CommittedOps counts events the commit automaton validated in serial
	// order (every recorded operation commits exactly once).
	CommittedOps uint64
	// Conflicts counts events whose speculative outcome mismatched the
	// committed truth.
	Conflicts uint64
	// Rollbacks counts rank rollbacks (one per conflicted operation that
	// had speculated).
	Rollbacks uint64
	// WindowStalls counts times a rank parked because its event stream ran
	// a full speculation window ahead of the commit frontier.
	WindowStalls uint64
	// SpecCollHits counts collective arrivals served speculatively — the
	// result computed from the published contribution set before the
	// commit turn — and validated by the commit replay.
	SpecCollHits uint64
	// SpecCollRollbacks counts speculative collective arrivals whose
	// predicted leave time mismatched the commit replay, rolling the rank
	// back to the contribution set recorded in its undo log.
	SpecCollRollbacks uint64
	// ReexecutedUS is the total virtual time discarded by rollbacks and
	// re-executed from the committed truth.
	ReexecutedUS float64
}

// SpecStats returns the world's speculation telemetry. It is the zero value
// unless the world runs under OptimisticParallel.
func (w *World) SpecStats() SpecStats {
	if w.o == nil {
		return SpecStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.o.stats
}

// recvSlot is one posted receive inside a recorded receive event. The rank
// fills got with its (speculative or fast-path) pick; the automaton fills
// truth with the committed match and byAuto when it assigned got itself
// while the rank was parked.
type recvSlot struct {
	key      mailKey
	src, tag int
	bufLen   int
	got      *message
	byAuto   bool
	truth    *message
	// req is the posted request and idx its position in the caller's list;
	// only the owning rank reads them, never the automaton.
	req *Request
	idx int
}

// specEvent is one recorded MPI operation in a rank's event stream. The
// rank appends it at operation entry (before parking), so the automaton
// always sees the rank's next scheduling point; clock is the rank's virtual
// clock at that entry and is advanced in place by the automaton as it
// replays consumes.
type specEvent struct {
	kind  evKind
	rank  int
	op    string
	comm  *Comm
	clock float64

	// evSend
	sendKey mailKey
	msg     *message

	// evRecv / evWaitsome. one is the storage of a single-slot event; wild
	// marks an AnySource slot.
	slots      []recvSlot
	one        [1]recvSlot
	wild       bool
	sub        int // next slot the automaton will process (evRecv)
	specDone   bool
	conflicted bool

	// evColl
	collKind   collKind
	collRoot   int
	collOp     Op
	contrib    []float64
	collGen    uint64
	collJoined bool
	collRes    []float64
	collLeave  float64
	collID     int
	// Speculative-completion state: collSpec marks leave/res as computed
	// from the published contribution set ahead of the commit replay,
	// collRunAhead that the completion is provably exact (the rank returns
	// without a verdict), and collSpecContrib the contribution set the
	// speculation consumed, recorded into the verdict-parked rank's undo
	// log.
	collSpec        bool
	collRunAhead    bool
	collSpecContrib [][]float64

	// evKeyval
	keyvalID int

	state int
}

// optState is the optimistic scheduler's shared state, guarded by World.mu.
type optState struct {
	w *World

	// pub is the published view of the message space: every send lands here
	// immediately. Messages move to the committed mailboxes when the
	// automaton replays the send, and leave both views when it replays the
	// consuming receive. taken marks tentative speculative consumption.
	pub map[mailKey][]*message

	// streams/pos are the per-rank recorded events and the commit frontier.
	streams [][]*specEvent
	pos     []int

	// Automaton replay state: per-rank status and committed clock, plus the
	// currently granted rank (-1 when none — a scheduling point is due).
	aStat  []int
	aClock []float64
	cur    int

	finished []bool // rank goroutine returned
	parked   []bool // rank is waiting inside optParkLocked

	// win is the speculation window in recorded events: specWindow, except
	// where an in-package test tightens it to exercise windowWaitLocked.
	win int

	// Speculative-collective state. mirror runs every communicator's
	// collective rendezvous over the published arrival order, ahead of the
	// committed collState; specRng replays the shared collective-cost RNG
	// stream for speculative completions. specDraws and commitDraws count
	// cost draws consumed from specRng and from the committed w.rng: their
	// difference is the number of speculative completions running ahead of
	// the commit frontier, which pins the draw index a run-ahead
	// completion will receive at its commit turn.
	mirror      map[int]*specCollMirror
	specRng     *rand.Rand
	specDraws   uint64
	commitDraws uint64

	// payloads is the rest of the chunk carveLocked cuts payloads from.
	payloads []float64

	stats SpecStats
}

// specCollMirror tracks one communicator's in-flight collective over the
// published (speculative) arrival order — the same rendezvous collState
// runs for the committed order, but advanced as arrivals are recorded
// rather than replayed, so its generation counter is always at or ahead
// of the committed one. Its contribution table is handed to the
// generation's events and undo logs, so each generation gets a new one.
type specCollMirror struct {
	collState
	events   []*specEvent
	mismatch bool
}

// newOptState sizes the scheduler state for the world's rank count.
func newOptState(w *World) *optState {
	n := w.cfg.Procs
	o := &optState{
		w:        w,
		pub:      make(map[mailKey][]*message),
		streams:  make([][]*specEvent, n),
		pos:      make([]int, n),
		aStat:    make([]int, n),
		aClock:   make([]float64, n),
		cur:      -1,
		finished: make([]bool, n),
		parked:   make([]bool, n),
		win:      specWindow,
		mirror:   make(map[int]*specCollMirror),
		specRng:  rand.New(rand.NewSource(w.cfg.Seed ^ 0x51ca5e)),
	}
	for r := range o.aClock {
		o.aClock[r] = w.ranks[r].Proc.Now()
	}
	return o
}

// reqUndo snapshots the mutable fields of one request for rollback.
type reqUndo struct {
	req  *Request
	done bool
	n    int
	buf  []float64
}

// specUndo is the undo log one speculative operation records before
// tentatively consuming anything: processor state (clock, counters, RNG
// position), request state and the published messages it marked
// taken — and no copy of the cache directory: package mpi never accesses the
// cache, and a speculating rank stays parked inside its MPI call until the
// verdict, so no line can move before a rollback (which checks exactly that).
// A rank has one speculation open at a time: the log lives on the Rank.
type specUndo struct {
	proc  platform.ProcState
	reqs  []reqUndo
	taken []*message
	// contrib is the contribution set a speculative collective consumed,
	// recorded so a conflicting commit-order replay re-derives the exact
	// result from the same inputs instead of trusting speculative state.
	contrib [][]float64
}

// specCheckpointLocked records the rank's rollback point before it completes
// the receives in slots speculatively. Caller holds the world lock (the
// snapshot itself touches only rank-local state).
func (r *Rank) specCheckpointLocked(slots []recvSlot) *specUndo {
	u := &r.undo
	u.proc = r.Proc.Checkpoint()
	u.taken, u.contrib = u.taken[:0], nil
	// The entries, and their buffer copies' storage, are those of earlier
	// speculations wherever there were as many.
	u.reqs = slices.Grow(u.reqs[:0], len(slots))[:len(slots)]
	for i := range slots {
		q, ru := slots[i].req, &u.reqs[i]
		*ru = reqUndo{req: q, done: q.done, n: q.n, buf: append(ru.buf[:0], q.buf...)}
	}
	return u
}

// rollbackLocked rewinds the rank to the undo log's checkpoint: virtual
// clock, counters, RNG stream position, request state;
// tentatively taken messages return to the published pool. The cache
// directory needs no rewinding while the region accessed nothing, which the
// cache's counters prove; one that did is a bug, and panics here.
func (r *Rank) rollbackLocked(u *specUndo) {
	if got := r.Proc.Cache().Stats(); got != u.proc.CacheStats {
		panic(fmt.Sprintf("mpi: optimistic scheduler invariant violation: rank %d accessed its cache inside a speculative region (counters %+v at the checkpoint, %+v at rollback), and speculation checkpoints hold no copy of the cache directory",
			r.rank, u.proc.CacheStats, got))
	}
	r.Proc.Restore(u.proc)
	for _, ru := range u.reqs {
		ru.req.done = ru.done
		ru.req.n = ru.n
		copy(ru.req.buf, ru.buf)
	}
	for _, m := range u.taken {
		m.taken = false
	}
	u.taken = u.taken[:0]
}

// newEvent starts the event of the rank's next MPI call: every call records
// one. Every slot of a stream's spare capacity, past its end, holds a free
// event, and the first of them, where appendLocked will put the new event,
// is the one used. The rank first reclaims its committed events into that
// spare capacity (reclaimLocked); when none is left, the stream grows and
// its new spare slots are filled with fresh events, one allocation for
// all of them. A reused event keeps its slot storage. Caller holds w.mu.
func (r *Rank) newEvent(init specEvent) *specEvent {
	o := r.world.o
	o.reclaimLocked(r)
	s := o.streams[r.rank]
	if len(s) == cap(s) {
		s = slices.Grow(s, 16)
		spare := s[len(s):cap(s)]
		evs := make([]specEvent, len(spare))
		for i := range spare {
			spare[i] = &evs[i]
		}
		o.streams[r.rank] = s
	}
	ev := s[:len(s)+1][len(s)]
	slots := ev.slots[:0]
	*ev = init
	ev.slots = slots
	return ev
}

// reclaimLocked recycles the events of rank r's stream that the automaton
// has committed. Called as r starts an MPI call, it is the point where
// nothing reads them any more: the automaton is past them, and r has
// returned from the calls that read their outcome after parking (ev.state,
// the slots' got and truth). A committed receive's truths are the messages
// it matched, which by then have left the published view and the
// mailboxes, and whose sends committed before them: they are released. The
// stream is rotated so that its uncommitted tail comes first and the
// committed events follow it, past the new end, as spare capacity for
// newEvent: the stream stops growing once it holds its peak of events. The
// rotation moves the stream's length in pointers, which the speculation
// window bounds.
func (o *optState) reclaimLocked(r *Rank) {
	s, p := o.streams[r.rank], o.pos[r.rank]
	if p == 0 {
		return
	}
	for _, ev := range s[:p] {
		for i := range ev.slots {
			if m := ev.slots[i].truth; m != nil {
				o.w.releaseLocked(m)
			}
		}
	}
	slices.Reverse(s[:p])
	slices.Reverse(s[p:])
	slices.Reverse(s)
	o.streams[r.rank] = s[:len(s)-p]
	o.pos[r.rank] = 0
}

// recvEvent starts the event of a receive-completing call, with one slot per
// pending receive of reqs, in posting order.
func (c *Comm) recvEvent(kind evKind, op string, reqs []*Request) *specEvent {
	ev := c.r.newEvent(specEvent{kind: kind, rank: c.r.rank, op: op, comm: c, clock: c.r.Proc.Now()})
	if ev.slots == nil {
		ev.slots = ev.one[:0]
	}
	for i, q := range reqs {
		if q.isRecv && !q.done {
			ev.slots = append(ev.slots, recvSlot{key: mailKey{comm: q.comm.id, dst: c.r.rank},
				src: q.src, tag: q.tag, bufLen: len(q.buf), req: q, idx: i})
			ev.wild = ev.wild || q.src == AnySource
		}
	}
	return ev
}

// specInstant records a speculation event of rank's operation op on its
// trace lane. The argument is boxed inside the branch, so an unobserved world
// allocates nothing for it.
func (w *World) specInstant(rank int, name, op string) {
	if trk := w.rankTrack(rank); trk != nil {
		trk.Instant("spec", name, obs.Arg{Name: "op", Value: op})
	}
}

// rollbackInstant records a rollback of rank and the virtual time it
// re-executes, as specInstant does.
func (w *World) rollbackInstant(rank int, reexecUS float64) {
	if trk := w.rankTrack(rank); trk != nil {
		trk.Instant("spec", "rollback", obs.Arg{Name: "reexec_us", Value: reexecUS})
	}
}

// ---------------------------------------------------------------------------
// Published-view helpers (caller holds w.mu).

// pubFindLocked returns the published message a speculative pick would
// consume for (src, tag), or nil. For a specific source the pick is the
// sender's first untaken matching message — publication order is the
// sender's program order, so this is exactly the committed FIFO match. For
// AnySource it is a heuristic (earliest arrival) validated later by the
// automaton; oversized messages are skipped so a wrong pick cannot trigger
// a spurious truncation panic.
func (o *optState) pubFindLocked(key mailKey, src, tag, bufLen int) *message {
	var best *message
	for _, m := range o.pub[key] {
		if m.taken {
			continue
		}
		if (src != AnySource && m.src != src) || (tag != AnyTag && m.tag != tag) {
			continue
		}
		if src != AnySource {
			return m
		}
		if len(m.data) > bufLen {
			continue
		}
		if best == nil || m.arrive < best.arrive {
			best = m
		}
	}
	return best
}

// pubRemoveLocked drops a committed-and-consumed message from the published
// view.
func (o *optState) pubRemoveLocked(key mailKey, m *message) {
	box := o.pub[key]
	for i, x := range box {
		if x == m {
			o.pub[key] = slices.Delete(box, i, i+1)
			return
		}
	}
}

// appendLocked records an event on the rank's stream, first parking if the
// stream has run a full speculation window ahead of the commit frontier.
func (o *optState) appendLocked(rank int, ev *specEvent) {
	o.windowWaitLocked(rank)
	o.streams[rank] = append(o.streams[rank], ev)
}

// windowWaitLocked parks the rank while its stream is a full speculation
// window ahead of the commit frontier.
func (o *optState) windowWaitLocked(rank int) {
	if len(o.streams[rank])-o.pos[rank] < o.win {
		return
	}
	o.stats.WindowStalls++
	o.w.rankTrack(rank).Instant("spec", "window stall")
	o.w.optParkLocked(rank, blockDesc{op: "speculation window"})
}

// What an optimistic blockDesc's slot names besides a slot of its event.
const (
	slotAny     = -1 // any slot of the event (Waitsome)
	slotVerdict = -2 // nothing short of the automaton's verdict
)

// readyLocked evaluates what a parked rank waits for: with no event, room in
// its speculation window; otherwise the automaton's verdict on the event
// or, short of that, the collective's speculative completion, or a pick —
// the automaton's or a published match — for slot d.slot (for any slot
// under slotAny).
func (o *optState) readyLocked(rank int, d *blockDesc) bool {
	ev := d.ev
	switch {
	case ev == nil:
		return len(o.streams[rank])-o.pos[rank] < o.win
	case ev.state != esPending:
		return true
	case d.slot == slotVerdict:
		return false
	case ev.kind == evColl:
		return ev.collSpec
	}
	lo, hi := d.slot, d.slot+1
	if d.slot == slotAny {
		lo, hi = 0, len(ev.slots)
	}
	for i := lo; i < hi; i++ {
		if s := &ev.slots[i]; s.got != nil || o.pubFindLocked(s.key, s.src, s.tag, s.bufLen) != nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Parking, helping and deadlock detection.

// optParkLocked parks the rank until what on describes has happened
// (readyLocked). While waiting it helps drive the commit automaton (there is
// no dedicated committer goroutine) and runs the deadlock check: if every
// other live rank is parked or finished and the automaton cannot progress,
// the replayed serial order is blocked with every live rank waiting — the
// exact condition under which the serial scheduler declares deadlock.
// Caller holds w.mu.
func (w *World) optParkLocked(rank int, on blockDesc) {
	w.blockedOn[rank] = on // the deadlock check re-evaluates parked ranks
	if w.holdsLocked(rank) {
		return
	}
	o := w.o
	w.status[rank] = stBlocked
	// The compute slot is released once, on first parking, and re-acquired
	// once the predicate holds — not around every Wait iteration: releasing
	// broadcasts to slot waiters, and a release per wakeup lets idle parked
	// ranks wake each other in a broadcast storm that starves the ranks
	// doing real work.
	released := false
	for {
		if w.aborted {
			panic(abortPanic{})
		}
		if w.holdsLocked(rank) {
			break
		}
		if w.autoStepLocked() {
			continue
		}
		if o.allOthersIdleLocked(rank) {
			w.optDeadlockLocked()
			panic(abortPanic{})
		}
		o.parked[rank] = true
		if !released {
			w.releaseSlotLocked(rank)
			released = true
		}
		w.cond.Wait()
		o.parked[rank] = false
	}
	if released && !w.acquireSlotLocked(rank) {
		panic(abortPanic{})
	}
	w.status[rank] = stRunning
}

// allOthersIdleLocked reports whether every rank but self is parked on a
// still-failing predicate or has finished — the quiescence precondition for
// declaring deadlock. A computing rank could still publish new input, and a
// parked rank whose predicate already holds merely has not been scheduled
// yet: it will wake from the pending broadcast and make progress.
func (o *optState) allOthersIdleLocked(self int) bool {
	for r := range o.parked {
		if r == self {
			continue
		}
		if o.finished[r] {
			continue
		}
		if !o.parked[r] {
			return false
		}
		if o.w.holdsLocked(r) {
			return false
		}
	}
	return true
}

// optDeadlockLocked aborts the world with the same per-rank deadlock errors
// and state dump the serial scheduler produces. Only optParkLocked calls it,
// and only at quiescence, so every live rank's Proc is safe to read.
func (w *World) optDeadlockLocked() {
	w.aborted = true
	report := w.deadlockReportLocked()
	for r := range w.status {
		if w.status[r] == stBlocked {
			w.panics[r] = fmt.Errorf("mpi: deadlock: rank %d blocked at t=%.3fus in %s with no matching communication\n%s",
				r, w.ranks[r].Proc.Now(), w.blockedOn[r], report)
		}
	}
	w.cond.Broadcast()
}

// ---------------------------------------------------------------------------
// The commit automaton (caller holds w.mu).

// autoStepLocked advances the commit automaton as far as it can and reports
// whether any event committed. It replays the serial token discipline over
// the recorded streams: consume the granted rank's events until one blocks,
// then promote and grant the ready rank with the smallest (clock, rank). It
// never declares deadlock — a stall may just mean a computing rank has not
// recorded its next event yet; optParkLocked owns that call.
func (w *World) autoStepLocked() bool {
	o := w.o
	progressed := false
	for {
		if w.aborted {
			break
		}
		if o.cur != -1 {
			if o.consumeSegmentLocked(o.cur) {
				progressed = true
			}
			if o.cur != -1 {
				// The granted rank's stream is exhausted mid-segment: the
				// serial order is inside its still-running compute segment.
				break
			}
			continue
		}
		// Scheduling point: promote blocked ranks whose predicates now hold
		// against committed state, then grant the smallest (clock, rank).
		for r := range o.aStat {
			if o.aStat[r] == aBlocked && o.predHoldsLocked(r) {
				o.aStat[r] = aReady
			}
		}
		next, best := -1, 0.0
		for r := 0; r < len(o.aStat); r++ {
			if o.aStat[r] != aReady {
				continue
			}
			if next == -1 || o.aClock[r] < best {
				next, best = r, o.aClock[r]
			}
		}
		if next == -1 {
			break
		}
		o.cur = next
	}
	if progressed {
		w.cond.Broadcast()
	}
	return progressed
}

// consumeSegmentLocked replays the granted rank's events until one blocks
// or the stream is exhausted, reporting whether any event committed.
func (o *optState) consumeSegmentLocked(r int) bool {
	progressed := false
	for o.pos[r] < len(o.streams[r]) {
		ev := o.streams[r][o.pos[r]]
		if !o.processLocked(ev) {
			o.aStat[r] = aBlocked
			o.aClock[r] = ev.clock
			o.cur = -1
			return progressed
		}
		o.pos[r]++
		o.stats.CommittedOps++
		progressed = true
	}
	if o.finished[r] {
		o.aStat[r] = aDone
		o.aClock[r] = o.w.ranks[r].Proc.Now() // quiescent: goroutine returned
		o.cur = -1
	}
	return progressed
}

// predHoldsLocked evaluates a blocked rank's next event against committed
// state — the automaton's analog of the serial scheduler's blocked[r]().
func (o *optState) predHoldsLocked(r int) bool {
	ev := o.streams[r][o.pos[r]]
	w := o.w
	switch ev.kind {
	case evColl:
		cs := w.colls[ev.comm.id]
		return cs != nil && cs.gen > ev.collGen
	case evRecv:
		s := &ev.slots[ev.sub]
		return w.hasMatchLocked(s.key, s.src, s.tag)
	case evWaitsome:
		for i := range ev.slots {
			s := &ev.slots[i]
			if w.hasMatchLocked(s.key, s.src, s.tag) {
				return true
			}
		}
		return false
	}
	return true
}

// processLocked attempts to commit one event against committed state. It
// returns false when the event's serial predicate fails (the rank blocks at
// this point in the replayed order).
func (o *optState) processLocked(ev *specEvent) bool {
	switch ev.kind {
	case evSend:
		o.w.enqueueLocked(ev.sendKey, ev.msg)
		return true
	case evKeyval:
		o.w.nextCommID++
		ev.keyvalID = o.w.nextCommID
		ev.state = esResolved
		return true
	case evColl:
		return o.processCollLocked(ev)
	case evRecv:
		return o.processRecvLocked(ev)
	case evWaitsome:
		return o.processWaitsomeLocked(ev)
	}
	panic(fmt.Sprintf("mpi: unknown speculative event kind %d", int(ev.kind)))
}

// processCollLocked replays a collective join for the committed order:
// collectiveLocked's join, with the event's recorded entry clock and
// contribution standing in for the rank's live state.
func (o *optState) processCollLocked(ev *specEvent) bool {
	w := o.w
	c := ev.comm
	cs := w.colls[c.id]
	if cs == nil {
		cs = &collState{}
		w.colls[c.id] = cs
	}
	if !ev.collJoined {
		ev.collGen = cs.gen
		full, err := cs.join(c, ev.collKind, ev.collOp, ev.collRoot, ev.clock, ev.contrib)
		if err != nil {
			panic(err)
		}
		ev.collJoined = true
		if full {
			c.completeCollectiveLocked(cs)
			o.noteCommitDrawLocked()
		}
	}
	if cs.gen <= ev.collGen {
		return false // parked until the collective's last member arrives
	}
	switch {
	case ev.collSpec && ev.collRunAhead:
		// The rank already ran ahead on this completion, which is exact by
		// construction; a mismatch means the draw-alignment proof is
		// broken, not a race a rollback could repair.
		if ev.collLeave != cs.lastLeave {
			panic(fmt.Sprintf("mpi: optimistic scheduler invariant violation: rank %d %s ran ahead on speculative leave t=%.6fus but committed leave is t=%.6fus",
				ev.rank, ev.op, ev.collLeave, cs.lastLeave))
		}
		o.stats.SpecCollHits++
		ev.state = esResolved
	case ev.collSpec:
		// Verdict for a parked speculative completion: the results are a
		// pure function of the (identical) contribution set, so the leave
		// time — the only value carrying the provisional cost draw — is
		// the whole verdict.
		if ev.collLeave == cs.lastLeave {
			o.stats.SpecCollHits++
			ev.state = esResolved
			break
		}
		o.stats.Conflicts++
		o.w.specInstant(ev.rank, "conflict", ev.op)
		ev.collLeave, ev.collRes, ev.collID = cs.lastLeave, cs.lastResult, cs.lastID
		ev.state = esConflict
	default:
		ev.collLeave, ev.collRes, ev.collID = cs.lastLeave, cs.lastResult, cs.lastID
		ev.state = esResolved
	}
	return true
}

// noteCommitDrawLocked records a committed collective completion's cost
// draw and advances the speculative mirror RNG past completions it never
// drew for (Dup and other unspeculated generations), keeping
// specRng aligned with the committed w.rng stream.
func (o *optState) noteCommitDrawLocked() {
	if o.w.cfg.Net.NoiseSigma <= 0 {
		return // the cost is deterministic: neither RNG consumes a draw
	}
	o.commitDraws++
	for o.specDraws < o.commitDraws {
		o.specRng.NormFloat64()
		o.specDraws++
	}
}

// processRecvLocked validates a recorded receive (Recv/Waitall): it
// performs the authoritative committed-order matches slot by slot,
// replaying the serial clock progression, and compares them against the
// rank's speculative picks. A wildcard mismatch marks the event conflicted
// (the owning rank will roll back and re-execute from the recorded truth);
// a specific-source mismatch is impossible by construction and panics.
func (o *optState) processRecvLocked(ev *specEvent) bool {
	w := o.w
	for ev.sub < len(ev.slots) {
		s := &ev.slots[ev.sub]
		m := w.matchLocked(s.key, s.src, s.tag)
		if m == nil {
			return false // blocked here in the serial order
		}
		switch {
		case ev.conflicted:
			// Past the first mismatch only the truth matters: the rank will
			// re-execute every slot from it.
			s.truth = m
		case s.got == nil:
			// The rank has not picked yet (it is parked): assign the truth
			// as its pick so it completes conflict-free.
			s.got, s.truth, s.byAuto = m, m, true
			m.taken = true
		case s.got == m:
			s.truth = m
		case s.src != AnySource:
			panic(fmt.Sprintf("mpi: optimistic scheduler invariant violation: rank %d %s slot %d picked message (src=%d tag=%d arrive=%.3f) but committed match is (src=%d tag=%d arrive=%.3f)",
				ev.rank, ev.op, ev.sub, s.got.src, s.got.tag, s.got.arrive, m.src, m.tag, m.arrive))
		default:
			ev.conflicted = true
			o.stats.Conflicts++
			o.w.specInstant(ev.rank, "conflict", ev.op)
			s.truth = m
		}
		o.pubRemoveLocked(s.key, m)
		t := m.arrive
		if ev.clock > t {
			t = ev.clock
		}
		n := len(m.data)
		if s.bufLen < n {
			n = s.bufLen // rank-side consume panics on truncation; mirror min
		}
		ev.clock = t + float64(bytesOf(n))/copyBytesPerUS
		ev.sub++
	}
	if ev.conflicted {
		ev.state = esConflict
	} else {
		ev.state = esResolved
	}
	return true
}

// processWaitsomeLocked validates a recorded Waitsome at its serial wake
// point: the committed completion set is every posted receive with a queued
// match, consumed in posting order. If the rank speculated a different set
// (or different messages) the event is conflicted.
func (o *optState) processWaitsomeLocked(ev *specEvent) bool {
	w := o.w
	any := false
	for i := range ev.slots {
		s := &ev.slots[i]
		if w.hasMatchLocked(s.key, s.src, s.tag) {
			any = true
			break
		}
	}
	if !any {
		return false
	}
	conflict := false
	for i := range ev.slots {
		s := &ev.slots[i]
		m := w.matchLocked(s.key, s.src, s.tag)
		s.truth = m
		if m != nil {
			o.pubRemoveLocked(s.key, m)
			t := m.arrive
			if ev.clock > t {
				t = ev.clock
			}
			n := len(m.data)
			if s.bufLen < n {
				n = s.bufLen
			}
			ev.clock = t + float64(bytesOf(n))/copyBytesPerUS
		}
		if ev.specDone {
			if s.got != m {
				if len(ev.slots) == 1 && s.src != AnySource {
					panic(fmt.Sprintf("mpi: optimistic scheduler invariant violation: rank %d single specific-source Waitsome mismatched its committed match", ev.rank))
				}
				conflict = true
			}
		} else if m != nil {
			s.got, s.byAuto = m, true
			m.taken = true
		}
	}
	if conflict {
		o.stats.Conflicts++
		o.w.specInstant(ev.rank, "conflict", ev.op)
		ev.state = esConflict
	} else {
		ev.state = esResolved
	}
	return true
}

// ---------------------------------------------------------------------------
// Rank-side operations (called from Comm entry points when w.opt).

// optPostSend publishes a fully computed message immediately and records
// the send for the committed-order replay. Sends never block (beyond the
// speculation window) and never conflict: arrival time and noise use only
// the sender's clock and RNG, which are exact at every operation boundary.
// The message is taken under the world lock, so it can be one released
// since the rank's last call.
func (c *Comm) optPostSend(key mailKey, tag int, data []float64, arrive float64) {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.o
	w.refillLocked(c.r, 1)
	m := c.r.newMessage(c.r.rank, tag, data, arrive)
	ev := c.r.newEvent(specEvent{kind: evSend, rank: c.r.rank, op: "MPI_Send()", comm: c, clock: c.r.Proc.Now(), sendKey: key, msg: m})
	o.appendLocked(c.r.rank, ev)
	box := o.pub[key]
	if box == nil {
		// Room for a run-ahead's worth at once, not growth 1, 2, 4, ...
		box = make([]*message, 0, 16)
	}
	o.pub[key] = append(box, m)
	o.stats.PublishedSends++
	w.cond.Broadcast() // a parked receiver may now have a published match
}

// payloadChunk is the size, in floats, of the chunks carveLocked cuts
// message payloads from.
const payloadChunk = 1024

// carveLocked returns empty storage for an n-float message payload. Ranks
// publish sends well ahead of the commit frontier behind which messages are
// recycled, so an optimistic world holds two to three times the live
// messages of a serial one; cutting their payloads from shared chunks pays
// for many with one allocation, and a payload longer than a chunk gets its
// own. Caller holds w.mu.
func (o *optState) carveLocked(n int) []float64 {
	if n > payloadChunk {
		return make([]float64, 0, n)
	}
	if len(o.payloads) < n {
		o.payloads = make([]float64, payloadChunk)
	}
	buf := o.payloads[:0:n]
	o.payloads = o.payloads[n:]
	return buf
}

// optCompleteRecvs completes the pending receives in reqs in posting order:
// the shared path behind Recv and Waitall. Specific-source slots
// complete on publication (the conflict-free fast path); if any slot is
// AnySource the whole operation speculates under an undo log and parks for
// the automaton's verdict before returning.
func (c *Comm) optCompleteRecvs(op string, reqs []*Request) {
	w := c.world
	rank := c.r.rank
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.o

	ev := c.recvEvent(evRecv, op, reqs)
	if len(ev.slots) == 0 {
		return
	}
	o.appendLocked(rank, ev)

	var undo *specUndo
	if ev.wild {
		undo = c.r.specCheckpointLocked(ev.slots)
		o.stats.SpeculatedOps++
		w.specInstant(rank, "speculate", op)
	}

	for i := range ev.slots {
		s := &ev.slots[i]
		q := s.req
		w.optParkLocked(rank, blockDesc{op: op, comm: q.comm.id, src: q.src, tag: q.tag, ev: ev, slot: i})
		if ev.state == esConflict {
			break
		}
		if s.got == nil {
			m := o.pubFindLocked(s.key, s.src, s.tag, s.bufLen)
			m.taken = true
			s.got = m
			if undo != nil {
				undo.taken = append(undo.taken, m)
			}
		}
		q.comm.consumeLocked(s.got, q)
	}
	if undo == nil {
		// All slots specific-source: publication order equals committed
		// FIFO order, so the picks are the serial matches by construction.
		o.stats.PipelinedOps++
		return
	}

	// Speculated: hold the operation until the automaton validates it.
	w.optParkLocked(rank, blockDesc{op: op, comm: c.id, src: ev.slots[0].src, tag: ev.slots[0].tag, pending: len(ev.slots) - 1, ev: ev, slot: slotVerdict})
	if ev.state == esResolved {
		return
	}
	// Conflict: discard the speculated execution and replay every slot from
	// the committed truth.
	reexec := c.r.Proc.Now() - undo.proc.Clock
	c.r.rollbackLocked(undo)
	o.stats.Rollbacks++
	o.stats.ReexecutedUS += reexec
	w.rollbackInstant(rank, reexec)
	for i := range ev.slots {
		s := &ev.slots[i]
		s.truth.taken = true
		s.req.comm.consumeLocked(s.truth, s.req)
	}
	ev.state = esResolved
}

// optWaitsome implements Waitsome's pending-receive path. With exactly one
// pending specific-source receive the completion set is deterministic and
// the operation pipelines; otherwise the completion set depends on the
// serial wake time, so the rank speculates (consuming every receive that is
// currently matchable in the published view) and parks for the verdict.
func (c *Comm) optWaitsome(reqs []*Request) []int {
	w := c.world
	rank := c.r.rank
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.o

	ev := c.recvEvent(evWaitsome, "MPI_Waitsome()", reqs)
	o.appendLocked(rank, ev)
	fast := len(ev.slots) == 1 && !ev.wild
	on := blockDesc{op: "MPI_Waitsome()", comm: c.id, pending: len(ev.slots), ev: ev, slot: slotAny}
	w.optParkLocked(rank, on)

	var out []int
	if ev.state == esResolved && !ev.specDone {
		// The automaton resolved the event while we were parked: its byAuto
		// assignments are the committed completion set.
		for i := range ev.slots {
			s := &ev.slots[i]
			if s.got == nil {
				continue
			}
			s.req.comm.consumeLocked(s.got, s.req)
			out = append(out, s.idx)
		}
		return out
	}

	var undo *specUndo
	if !fast {
		undo = c.r.specCheckpointLocked(ev.slots)
		o.stats.SpeculatedOps++
		w.specInstant(rank, "speculate", "MPI_Waitsome()")
	}
	for i := range ev.slots {
		s := &ev.slots[i]
		m := s.got
		if m == nil {
			m = o.pubFindLocked(s.key, s.src, s.tag, s.bufLen)
			if m == nil {
				continue
			}
			m.taken = true
			s.got = m
			if undo != nil {
				undo.taken = append(undo.taken, m)
			}
		}
		s.req.comm.consumeLocked(m, s.req)
		out = append(out, s.idx)
	}
	ev.specDone = true
	if fast {
		o.stats.PipelinedOps++
		return out
	}

	on.slot = slotVerdict
	w.optParkLocked(rank, on)
	if ev.state == esResolved {
		return out
	}
	reexec := c.r.Proc.Now() - undo.proc.Clock
	c.r.rollbackLocked(undo)
	o.stats.Rollbacks++
	o.stats.ReexecutedUS += reexec
	w.rollbackInstant(rank, reexec)
	out = out[:0]
	for i := range ev.slots {
		s := &ev.slots[i]
		if s.truth == nil {
			continue
		}
		s.truth.taken = true
		s.req.comm.consumeLocked(s.truth, s.req)
		out = append(out, s.idx)
	}
	ev.state = esResolved
	return out
}

// optCollective records the rank's arrival at a collective. When every
// peer's contribution is already published the collective completes
// speculatively (specCollCompleteLocked): a provably exact completion
// lets the rank run ahead without waiting for the commit automaton, an
// uncertain one parks it under an undo log — holding the contribution set
// — for the commit replay's verdict, rolling back exactly on a mismatch.
// Otherwise the rank parks until the automaton has replayed every
// member's arrival in the committed order.
func (c *Comm) optCollective(kind collKind, data []float64, root int, op Op) ([]float64, int) {
	w := c.world
	rank := c.r.rank
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.o
	// The rank runs ahead of the commit replay that reads its
	// contribution, so the event keeps a copy.
	var contrib []float64
	if data != nil {
		contrib = make([]float64, len(data))
		copy(contrib, data)
	}
	ev := c.r.newEvent(specEvent{
		kind: evColl, rank: rank, op: collOps[kind], comm: c,
		clock: c.r.Proc.Now(), collKind: kind, collRoot: root, collOp: op, contrib: contrib,
	})
	o.specCollArriveLocked(c, ev)
	o.appendLocked(rank, ev)
	w.optParkLocked(rank, blockDesc{op: ev.op, comm: c.id, ev: ev})
	if ev.state == esResolved || ev.collRunAhead {
		// Committed truth, or an exact speculative completion the rank may
		// run ahead on without a verdict.
		if ev.state != esResolved {
			o.stats.PipelinedOps++
		}
		c.r.Proc.SyncTo(ev.collLeave)
		return ev.collRes, ev.collID
	}
	if ev.state == esConflict {
		// The automaton rejected the speculative completion while we were
		// still parked: nothing speculative was ever applied to the rank,
		// so take the committed truth directly.
		ev.state = esResolved
		c.r.Proc.SyncTo(ev.collLeave)
		return ev.collRes, ev.collID
	}
	// Speculative completion with an unpinned cost draw: checkpoint with
	// the contribution set recorded in the undo log, tentatively take the
	// speculative leave time, and park for the automaton's verdict.
	undo := c.r.specCheckpointLocked(nil)
	undo.contrib = ev.collSpecContrib
	o.stats.SpeculatedOps++
	w.specInstant(rank, "speculate", ev.op)
	c.r.Proc.SyncTo(ev.collLeave)
	w.optParkLocked(rank, blockDesc{op: ev.op, comm: c.id, ev: ev, slot: slotVerdict})
	if ev.state == esConflict {
		reexec := c.r.Proc.Now() - undo.proc.Clock
		c.r.rollbackLocked(undo)
		o.stats.Rollbacks++
		o.stats.SpecCollRollbacks++
		o.stats.ReexecutedUS += reexec
		w.rollbackInstant(rank, reexec)
		// Re-execute from the committed truth: the contribution set in the
		// undo log re-derives the exact result (only the cost draw could
		// mismatch); the committed leave time replaces the predicted one.
		ev.collRes, _ = collResult(ev.collKind, ev.collOp, ev.collRoot, undo.contrib)
		ev.state = esResolved
		c.r.Proc.SyncTo(ev.collLeave)
	}
	return ev.collRes, ev.collID
}

// specCollArriveLocked records a collective arrival in the speculative
// mirror; when ev completes its generation's membership the mirror closes
// the generation, possibly speculatively (specCollCompleteLocked).
func (o *optState) specCollArriveLocked(c *Comm, ev *specEvent) {
	mir := o.mirror[c.id]
	if mir == nil {
		mir = &specCollMirror{}
		o.mirror[c.id] = mir
	}
	if mir.arrived == 0 {
		mir.events = mir.events[:0]
		mir.mismatch = false
	}
	full, err := mir.join(c, ev.collKind, ev.collOp, ev.collRoot, ev.clock, ev.contrib)
	// A mismatch is a program error; the commit replay raises the panic.
	mir.mismatch = mir.mismatch || err != nil
	mir.events = append(mir.events, ev)
	if full {
		o.specCollCompleteLocked(c, mir)
	}
}

// specCollCompleteLocked closes the mirror's current generation at its
// last arrival, when the full contribution set is published. Data
// collectives complete speculatively: the results are a pure function of
// the contribution set, and the leave time adds a cost draw from the
// mirror RNG. The completion is provably exact — members run ahead of the
// commit automaton — when the cost consumes no draw (NoiseSigma <= 0) or
// when the draw's commit-order index is pinned: every other communicator
// speculatively quiescent (every communicator spans the world, so this
// generation's evColl events block every rank's stream behind it), and
// every speculated-but-uncommitted completion an earlier generation of
// this same communicator (the draw-count equality). Otherwise the draw is
// a provisional guess and members park for the commit verdict. Dup
// allocates a communicator id — order-sensitive shared state — and stays
// strictly commit-ordered.
func (o *optState) specCollCompleteLocked(c *Comm, mir *specCollMirror) {
	w := o.w
	kind, op, root, tmax := mir.kind, mir.op, mir.root, mir.tmax
	contrib, events, mismatch := mir.contrib, mir.events, mir.mismatch
	committedGen := uint64(0)
	if cs := w.colls[c.id]; cs != nil {
		committedGen = cs.gen
	}
	genAhead := mir.gen - committedGen
	mir.gen++
	mir.arrived = 0
	mir.contrib = nil
	if mismatch || kind == collDup {
		return
	}
	exact := true
	if w.cfg.Net.NoiseSigma > 0 {
		exact = o.specDraws == o.commitDraws+genAhead
		if exact {
			// Order-independent boolean fold over the mirror: exact only if
			// every other communicator is speculatively quiescent.
			for id, m := range o.mirror {
				if id == c.id {
					continue
				}
				mgen := uint64(0)
				if cs := w.colls[id]; cs != nil {
					mgen = cs.gen
				}
				if m.gen != mgen || m.arrived != 0 {
					exact = false
					break
				}
			}
		}
	}
	result, bytes := collResult(kind, op, root, contrib)
	cost := w.cfg.Net.Collective(kind.netKind(), len(contrib), bytes, o.specRng)
	if w.cfg.Net.NoiseSigma > 0 {
		o.specDraws++
	}
	leave := tmax + cost
	for _, mev := range events {
		mev.collRunAhead = exact
		mev.collLeave = leave
		mev.collRes = result
		mev.collSpecContrib = contrib
		mev.collSpec = true
	}
	w.cond.Broadcast()
}

// optKeyvalCreate records an id allocation and parks until the automaton
// replays it — id allocation is order-sensitive shared state.
func (c *Comm) optKeyvalCreate() int {
	w := c.world
	rank := c.r.rank
	w.mu.Lock()
	defer w.mu.Unlock()
	ev := c.r.newEvent(specEvent{kind: evKeyval, rank: rank, op: "MPI_Keyval_create()", comm: c, clock: c.r.Proc.Now()})
	w.o.appendLocked(rank, ev)
	w.optParkLocked(rank, blockDesc{op: ev.op, comm: c.id, ev: ev, slot: slotVerdict})
	return ev.keyvalID
}
