// Package platform provides the simulated execution platform underlying the
// reproduction: a per-rank virtual clock, a CPU cost model, a virtual memory
// allocator, and deterministic per-rank random state.
//
// The paper's measurements were taken on a cluster of dual 2.8 GHz Pentium
// Xeons with 512 kB L2 caches. This repository replaces the physical machine
// with a model: every kernel performs its real floating-point work on real Go
// slices, then charges the platform for that work (FLOPs plus the cache
// behaviour of its access streams). TAU timers read the resulting virtual
// clock, so all reported times are deterministic virtual microseconds.
package platform

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
)

// Time is virtual time in microseconds.
type Time = float64

// CPUModel converts abstract work (FLOPs, cache hits and misses) into cycles
// and cycles into virtual microseconds.
type CPUModel struct {
	// ClockGHz is the core clock; the paper's testbed ran at 2.8 GHz.
	ClockGHz float64
	// CyclesPerFlop is the average cost of one floating-point operation
	// when its operands are already in registers or L1.
	CyclesPerFlop float64
	// HitCycles is the average cost of a data access that hits in the
	// simulated (L2) cache, folding in the L1 behaviour we do not model.
	HitCycles float64
	// MissCycles is the main-memory penalty for a cache miss.
	MissCycles float64
	// SeqMissFactor discounts miss penalties for sequential streams, which
	// hardware prefetchers largely hide. Strided streams pay full price.
	SeqMissFactor float64
	// CallCycles is the fixed overhead of a (virtual) method invocation
	// through a CCA port.
	CallCycles float64
}

// XeonModel returns the CPU model calibrated against the paper's testbed
// (2.8 GHz Pentium 4 Xeon class machine).
func XeonModel() CPUModel {
	return CPUModel{
		ClockGHz:      2.8,
		CyclesPerFlop: 2.0,
		HitCycles:     4.0,
		MissCycles:    140.0, // effective latency with ~2 misses in flight
		SeqMissFactor: 0.40,
		CallCycles:    40.0,
	}
}

// CyclesToMicros converts a cycle count to virtual microseconds.
func (m CPUModel) CyclesToMicros(cycles float64) Time {
	return cycles / (m.ClockGHz * 1e3)
}

// StreamCycles returns the cycle cost of a stream with the given hit and
// miss counts. Sequential streams receive the prefetch discount.
func (m CPUModel) StreamCycles(hits, misses uint64, sequential bool) float64 {
	missCost := m.MissCycles
	if sequential {
		missCost *= m.SeqMissFactor
	}
	// Each product is rounded on its own, so that no target fuses the sum
	// into a multiply-add that rounds once: every priced stream's cycles
	// are the same bits on every architecture.
	return float64(float64(hits)*m.HitCycles) + float64(float64(misses)*missCost)
}

// Counters holds the PAPI-style event counts accumulated by a Proc.
type Counters struct {
	// FPOps is the number of floating-point operations (PAPI_FP_OPS).
	FPOps uint64
	// L2DCA is the number of L2 data-cache accesses (PAPI_L2_DCA).
	L2DCA uint64
	// L2DCM is the number of L2 data-cache misses (PAPI_L2_DCM).
	L2DCM uint64
}

// Proc is one simulated processor: the execution context of a single SCMD
// rank. It owns a virtual clock, a private cache, a virtual address space,
// and a deterministic random stream. A Proc is not safe for concurrent use;
// each rank goroutine owns exactly one.
type Proc struct {
	rank  int
	cpu   CPUModel
	cache *cache.Cache
	rng   *rand.Rand
	src   *countingSource

	clock    Time
	nextAddr uint64
	fpOps    uint64
	// trace, while recording, receives every charge (RecordTo).
	trace *Trace
}

// countingSource wraps the standard random source and counts how many times
// it has stepped. Because the generator is deterministic, the step count is
// a complete checkpoint of the stream: rewinding rebuilds the source from
// its seed and replays the recorded number of steps. Both Int63 and Uint64
// advance the underlying generator exactly once, so replaying with Uint64
// reproduces the state regardless of which method originally drew.
type countingSource struct {
	seed  int64
	src   rand.Source64
	steps uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.steps++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.steps++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.seed = seed
	s.steps = 0
	s.src.Seed(seed)
}

// rewindTo restores the source to the state it had after n steps. n must not
// exceed the current step count: a random stream can be rewound, never
// fast-forwarded past draws that have not happened.
func (s *countingSource) rewindTo(n uint64) {
	if n > s.steps {
		panic(fmt.Sprintf("platform: cannot advance RNG checkpoint from %d to %d steps", s.steps, n))
	}
	if n == s.steps {
		return
	}
	s.src = rand.NewSource(s.seed).(rand.Source64)
	for s.steps = 0; s.steps < n; s.steps++ {
		s.src.Uint64()
	}
}

// ProcState is a checkpoint of a Proc's mutable rank-local state: the
// virtual clock, the heap cursor, the FLOP counter, the random stream (as a
// draw count) and the cache counters. Cache *contents* (resident lines and
// LRU order) are not included. A region that touches memory needs
// cache.Cache.Checkpoint alongside (no production caller does today; the
// benchmark probes time it and the cache's differential tests drive it).
// The optimistic rank scheduler does not: it checkpoints Procs around
// speculative MPI operations, which never access the cache — the rank is
// parked inside its MPI call until the verdict — so this state is all its
// rollback restores, and it proves the premise on every rollback by
// requiring Cache().Stats() to still equal CacheStats before Restore.
type ProcState struct {
	Clock      Time
	NextAddr   uint64
	FPOps      uint64
	RNGSteps   uint64
	CacheStats cache.Stats
}

// Checkpoint captures the Proc's mutable state for a later Restore.
func (p *Proc) Checkpoint() ProcState {
	return ProcState{
		Clock:      p.clock,
		NextAddr:   p.nextAddr,
		FPOps:      p.fpOps,
		RNGSteps:   p.src.steps,
		CacheStats: p.cache.Stats(),
	}
}

// Restore rewinds the Proc to a previously captured checkpoint: clock, heap
// cursor, FLOP counter, cache counters, and the random stream (replayed
// deterministically to the recorded draw count, so future draws are
// bit-identical to a run that never went past the checkpoint). It panics if
// the checkpoint is from the future (more RNG draws than have happened).
func (p *Proc) Restore(s ProcState) {
	p.clock = s.Clock
	p.nextAddr = s.NextAddr
	p.fpOps = s.FPOps
	p.src.rewindTo(s.RNGSteps)
	p.cache.RestoreStats(s.CacheStats)
}

// lineAlign is the alignment of virtual allocations; matching the cache line
// keeps stream simulation exact.
const lineAlign = 64

// baseAddr is where the virtual heap starts. No address is reserved to mean
// "no allocation" (every plane of every block has one); the value stays
// because every virtual address, and with it every simulated hit, miss and
// cache golden, is laid out from it.
const baseAddr = 1 << 20

// NewProc creates the execution context for one rank.
// seed disambiguates the random streams of different ranks and runs.
func NewProc(rank int, cpu CPUModel, cacheCfg cache.Config, seed int64) *Proc {
	src := newCountingSource(seed ^ int64(rank)*0x5E3779B97F4A7C15)
	return &Proc{
		rank:     rank,
		cpu:      cpu,
		cache:    cache.New(cacheCfg),
		rng:      rand.New(src),
		src:      src,
		nextAddr: baseAddr,
	}
}

// Rank returns the SCMD rank this Proc simulates.
func (p *Proc) Rank() int { return p.rank }

// Cache exposes the rank-private cache simulator.
func (p *Proc) Cache() *cache.Cache { return p.cache }

// RNG returns the rank's deterministic random stream.
func (p *Proc) RNG() *rand.Rand { return p.rng }

// Now returns the current virtual time in microseconds.
func (p *Proc) Now() Time { return p.clock }

// Advance moves the virtual clock forward by d microseconds.
// A negative advance, or any on a recording Proc (see Trace), panics.
func (p *Proc) Advance(d Time) {
	if p.trace != nil {
		panic(fmt.Sprintf("platform: Advance on recording rank %d: a trace cannot price it", p.rank))
	}
	p.advance(d)
}

func (p *Proc) advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("platform: negative time advance %g on rank %d", d, p.rank))
	}
	p.clock += d
}

// AdvanceCycles moves the clock forward by a cycle count.
func (p *Proc) AdvanceCycles(cycles float64) {
	if p.trace != nil {
		p.trace.add(charge{op: opCycles, arg: math.Float64bits(cycles)})
	}
	p.advanceCycles(cycles)
}

func (p *Proc) advanceCycles(cycles float64) { p.advance(p.cpu.CyclesToMicros(cycles)) }

// SyncTo moves the clock forward to t if t is in the future, never backward,
// and returns the clock value; on a recording Proc it panics (see Trace).
func (p *Proc) SyncTo(t Time) Time {
	if p.trace != nil {
		panic(fmt.Sprintf("platform: SyncTo on recording rank %d: a trace cannot price it", p.rank))
	}
	if t > p.clock {
		p.clock = t
	}
	return p.clock
}

// Alloc reserves n bytes of virtual address space, line-aligned, and returns
// the base address. The virtual heap is append-only: the simulation never
// frees, which keeps addresses unique for the cache model.
func (p *Proc) Alloc(n int) uint64 {
	if n < 0 {
		panic("platform: negative allocation")
	}
	addr := p.nextAddr
	sz := (uint64(n) + lineAlign - 1) &^ (lineAlign - 1)
	p.nextAddr += sz + lineAlign // guard line between allocations
	return addr
}

// ChargeFlops accounts n floating-point operations: the counter is bumped
// and the clock advanced per the CPU model.
func (p *Proc) ChargeFlops(n int) {
	if n <= 0 {
		return
	}
	if p.trace != nil {
		p.trace.add(charge{op: opFlops, n: n})
	}
	p.fpOps += uint64(n)
	p.advanceCycles(float64(n) * p.cpu.CyclesPerFlop)
}

// ChargeStream simulates a memory access stream of n elements starting at
// base with the given byte stride, charging the clock for hits and misses.
// Streams whose stride is within one cache line are treated as sequential
// (prefetch-friendly).
func (p *Proc) ChargeStream(base uint64, n, strideBytes int) (hits, misses uint64) {
	return p.ChargeStreamHinted(base, n, strideBytes, false)
}

// ChargeStreamHinted is ChargeStream with an explicit latency-overlap hint:
// kernels whose long independent arithmetic chains hide memory latency
// (the paper's EFMFlux, whose timings are nearly mode-independent, Fig. 8)
// charge even strided misses at the prefetched rate.
func (p *Proc) ChargeStreamHinted(base uint64, n, strideBytes int, overlapped bool) (hits, misses uint64) {
	if n <= 0 {
		return 0, 0
	}
	if p.trace != nil {
		// A recording walks no cache: pricing walks the streams.
		p.trace.add(streamCharge(base, n, strideBytes, overlapped))
		return 0, 0
	}
	hits, misses = p.cache.AccessRange(base, n, strideBytes)
	seq := overlapped || strideBytes <= p.cache.LineBytes()
	p.advanceCycles(p.cpu.StreamCycles(hits, misses, seq))
	return hits, misses
}

// ChargeCall accounts the fixed overhead of one port-mediated method call.
func (p *Proc) ChargeCall() {
	if p.trace != nil {
		p.trace.add(charge{op: opCall})
	}
	p.advanceCycles(p.cpu.CallCycles)
}

// Counters returns a snapshot of the PAPI-style event counters.
func (p *Proc) Counters() Counters {
	st := p.cache.Stats()
	return Counters{FPOps: p.fpOps, L2DCA: st.Accesses, L2DCM: st.Misses}
}

// A Trace is the ordered charges a Proc received while recording: the
// program's demand on the machine with the machine's prices left out.
// Every call that charges the clock or the counters appends one
// fixed-size event — ChargeStreamHinted (and ChargeStream), ChargeFlops,
// ChargeCall and AdvanceCycles — and Mark appends a mark the program
// places itself. A recording Proc walks no cache, so its clock and
// counters leave the streams out.
//
// A recording is priced on a machine in two steps. Walk runs its streams
// through an empty cache of that machine's geometry and keeps each
// stream's misses; Price then applies the charges in order to a Proc of
// the machine, with those misses, so every clock advance rounds as it
// would in a live run there. A walk depends on the streams and the cache
// geometry alone, so every machine with that cache, whatever its CPU, and
// every trace with the same streams (SameStreams), can share it. Advance
// and SyncTo take durations and times read off a clock, which a recording
// leaves without its streams' prices, so a recording Proc panics on
// either. Allocation and random draws are not charges: the recorded
// addresses already carry the allocator's layout.
//
// A Trace keeps its buffer across recordings; the zero value is empty.
type Trace struct {
	events  []charge
	streams int // the stream events among them
}

// charge is one recorded event, 24 bytes.
type charge struct {
	arg    uint64 // a stream's base address, or a float64's bits
	n      int    // a stream's element count, or ChargeFlops' n
	stride int32  // a stream's byte stride
	op     chargeOp
	hint   bool // a stream's latency-overlap hint
}

type chargeOp uint8

const (
	opStream chargeOp = iota
	opFlops
	opCall
	opCycles
	opMark
)

// streamCharge records ChargeStreamHinted's arguments. A byte stride beyond
// 2 GB fits no simulated array, nor does a stream of more than 2^32
// elements, whose misses would not fit a walk's count: either is a
// programming error and panics rather than record a different stream.
func streamCharge(base uint64, n, strideBytes int, overlapped bool) charge {
	stride := int32(strideBytes)
	if int(stride) != strideBytes || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("platform: a stream of %d elements, %d bytes apart, does not fit a trace event", n, strideBytes))
	}
	return charge{op: opStream, arg: base, n: n, stride: stride, hint: overlapped}
}

func (t *Trace) add(c charge) {
	if c.op == opStream {
		t.streams++
	}
	t.events = append(t.events, c)
}

// Len returns the number of recorded events, marks included.
func (t *Trace) Len() int { return len(t.events) }

// RecordTo empties t and appends every later charge of p to it, until
// RecordTo(nil) stops the recording. A Proc records into one trace at a
// time.
func (p *Proc) RecordTo(t *Trace) {
	if t != nil {
		t.events, t.streams = t.events[:0], 0
	}
	p.trace = t
}

// Mark appends a mark to the trace being recorded, and does nothing when
// none is. Price calls its mark function at each mark, where the pricing
// Proc's clock and counters read what a live Proc's would read on that
// machine.
func (p *Proc) Mark() {
	if p.trace != nil {
		p.trace.add(charge{op: opMark})
	}
}

// StreamDigest hashes the trace's streams — each one's base, length and
// stride, in order — which is all of it that a walk reads. Traces with
// equal digests may still differ: SameStreams decides.
func (t *Trace) StreamDigest() uint64 {
	h := uint64(14695981039346656037) // FNV-1a, a word at a time
	for i := range t.events {
		if c := &t.events[i]; c.op == opStream {
			for _, v := range [3]uint64{c.arg, uint64(c.n), uint64(c.stride)} {
				h = (h ^ v) * 1099511628211
			}
		}
	}
	return h
}

// SameStreams reports whether t and u hold the same streams in the same
// order, so that a walk of one is a walk of the other.
func (t *Trace) SameStreams(u *Trace) bool {
	i, j := 0, 0
	for {
		for i < len(t.events) && t.events[i].op != opStream {
			i++
		}
		for j < len(u.events) && u.events[j].op != opStream {
			j++
		}
		if i == len(t.events) || j == len(u.events) {
			return i == len(t.events) && j == len(u.events)
		}
		a, b := &t.events[i], &u.events[j]
		if a.arg != b.arg || a.n != b.n || a.stride != b.stride {
			return false
		}
		i++
		j++
	}
}

// A Walk is a trace's streams walked through an empty cache of one
// geometry: each stream's misses, in order. A Walk keeps its buffer across
// walks; the zero value is empty.
type Walk struct {
	cfg    cache.Config
	misses []uint32
}

// walkPart is one part of a split walk: its share of the cache and the
// misses of each stream in that share.
type walkPart struct {
	cache.Part
	misses []uint32
}

// spareParts keeps walk parts, a directory and a miss count per stream
// each, from one walk to the next: a process makes as many as its walks
// use at once.
var spareParts struct {
	sync.Mutex
	parts []*walkPart
}

// walksInFlight counts the walks running in the process, whose parts hold
// cores.
var walksInFlight atomic.Int32

// Walk walks the trace's streams, in order, through an empty cache of
// geometry cfg, and keeps each stream's misses in w. The walk is split by
// set (cache.Part) into a power-of-two number of parts that run on their
// own goroutines over the read-only trace: as many as GOMAXPROCS less the
// walks already in flight allows, at most the set count. The split
// changes how fast the misses come, never what they are.
func (t *Trace) Walk(cfg cache.Config, w *Walk) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	busy := int(walksInFlight.Add(1)) - 1
	defer walksInFlight.Add(-1)
	parts := 1
	for free := runtime.GOMAXPROCS(0) - busy; parts*2 <= free && parts*2 <= cfg.Sets(); {
		parts *= 2
	}
	t.walk(cfg, w, parts)
	return nil
}

// walk is Walk split into parts parts.
func (t *Trace) walk(cfg cache.Config, w *Walk, parts int) {
	var room [8]*walkPart
	ps := room[:0]
	spareParts.Lock()
	for k := 0; k < parts; k++ {
		if n := len(spareParts.parts); n > 0 {
			ps = append(ps, spareParts.parts[n-1])
			spareParts.parts = spareParts.parts[:n-1]
		} else {
			ps = append(ps, new(walkPart))
		}
	}
	spareParts.Unlock()
	var wg sync.WaitGroup
	for k, p := range ps {
		p.Reset(cfg, k, parts)
		if k > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.misses = t.walkPart(&p.Part, p.misses)
			}()
		}
	}
	w.cfg = cfg
	w.misses = t.walkPart(&ps[0].Part, w.misses)
	wg.Wait()
	for _, p := range ps[1:] {
		for i, m := range p.misses {
			w.misses[i] += m
		}
	}
	spareParts.Lock()
	spareParts.parts = append(spareParts.parts, ps...)
	spareParts.Unlock()
}

// walkPart stores the misses of each of the trace's streams in part in
// misses, reusing its storage, and returns it.
func (t *Trace) walkPart(part *cache.Part, misses []uint32) []uint32 {
	if cap(misses) < t.streams {
		misses = make([]uint32, t.streams)
	}
	misses = misses[:t.streams]
	s := 0
	for i := range t.events {
		if c := &t.events[i]; c.op == opStream {
			misses[s] = uint32(part.Misses(c.arg, c.n, int(c.stride)))
			s++
		}
	}
	return misses
}

// Price applies the trace's charges to p in the order they were recorded,
// taking each stream's misses from w, and calls mark at each mark. w must
// be a walk of this trace's streams (or the same streams of another
// trace) on p's cache geometry. p should be a fresh Proc; it may belong to
// any machine with that cache. Its clock and PAPI counters end where a
// live run's would.
func (t *Trace) Price(p *Proc, w *Walk, mark func()) error {
	if w.cfg != p.cache.Config() {
		return fmt.Errorf("platform: a walk on cache %+v prices a machine with cache %+v", w.cfg, p.cache.Config())
	}
	if len(w.misses) != t.streams {
		return fmt.Errorf("platform: a walk of %d streams prices a trace of %d", len(w.misses), t.streams)
	}
	s := 0
	for i := range t.events {
		c := &t.events[i]
		switch c.op {
		case opStream:
			misses := uint64(w.misses[s])
			if misses > uint64(c.n) {
				return fmt.Errorf("platform: the walk counts %d misses for stream %d of %d accesses", misses, s, c.n)
			}
			s++
			p.cache.Count(uint64(c.n)-misses, misses)
			seq := c.hint || int(c.stride) <= p.cache.LineBytes()
			p.advanceCycles(p.cpu.StreamCycles(uint64(c.n)-misses, misses, seq))
		case opFlops:
			p.ChargeFlops(c.n)
		case opCall:
			p.ChargeCall()
		case opCycles:
			p.AdvanceCycles(math.Float64frombits(c.arg))
		case opMark:
			mark()
		}
	}
	return nil
}
