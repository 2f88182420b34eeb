// Package cache implements a set-associative, write-allocate cache simulator
// with true-LRU replacement and a bulk stream-access API.
//
// The simulator stands in for the hardware performance counters (PAPI/PCL)
// used by the paper: kernels feed their actual memory-access streams through
// the simulator, which accounts hits and misses; the platform's CPU model
// converts those counts into virtual time. The default configuration mirrors
// the paper's testbed (dual 2.8 GHz Pentium Xeon, 512 kB L2, 64 B lines).
//
// The simulator is the hottest code in the repository (every simulated
// memory access of every kernel goes through AccessRange, Part.Misses or
// Count), and it is optimised under one rule: no simulated statistic may
// move. The implementation it replaced is kept, verbatim, in
// reference_test.go. differential_test.go drives both with seeded random
// traces over many geometries (and a fuzz target with free-form ones) —
// AccessRange, Checkpoint/Restore, RestoreStats and a helper that reads
// residency off the tags, against the reference's own calls — requiring
// identical per-call results, counters, tags and residency after every
// call. A test file holds the reference, so run time can never select it.
package cache

import "fmt"

// Config describes the geometry of a simulated cache.
type Config struct {
	// SizeBytes is the total capacity of the cache in bytes.
	SizeBytes int
	// LineBytes is the cache-line size in bytes. Must be a power of two.
	LineBytes int
	// Assoc is the number of ways per set. Assoc == 1 is a direct-mapped
	// cache; Assoc == SizeBytes/LineBytes is fully associative.
	Assoc int
}

// XeonL2 returns the configuration of the paper testbed's L2 cache:
// 512 kB, 8-way set associative, 64-byte lines.
func XeonL2() Config {
	return Config{SizeBytes: 512 * 1024, LineBytes: 64, Assoc: 8}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Assoc }

// Stats holds cumulative access counters, in the style of PAPI event counts.
type Stats struct {
	// Accesses is the total number of data accesses (PAPI_L2_DCA analog).
	Accesses uint64
	// Hits is the number of accesses satisfied by the cache.
	Hits uint64
	// Misses is the number of accesses that required a line fill
	// (PAPI_L2_DCM analog).
	Misses uint64
}

// Cache is a simulated set-associative cache. It is not safe for concurrent
// use; in the SCMD model each simulated rank owns a private Cache.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	// tags holds, per set, the resident lines in LRU order (index 0 = most
	// recently used) as line ID + 1; a zero entry is an empty way. Ways fill
	// from the MRU end and only ever shift towards the LRU end, so the empty
	// ways of a set are always a suffix of it. (The +1 cannot wrap for any
	// line size above one byte; byte-granular lines are a degenerate
	// geometry in which the single address 2^64-1 is not representable.)
	//
	// tags is nil until the first access: an untouched cache is an empty
	// directory, and a rank that only communicates never pays for clearing
	// one (64 kB for the testbed geometry).
	tags  []uint64
	assoc int
	stats Stats
}

// New constructs a cache simulator for the given geometry.
// It panics if the configuration is invalid, as a cache is always
// constructed from static, programmer-chosen parameters.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:       cfg,
		lineShift: log2(cfg.LineBytes),
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
	}
}

// ways returns the number of directory entries (sets x associativity).
func (c *Cache) ways() int { return int(c.setMask+1) * c.assoc }

// ensureDirectory allocates the empty directory at the first access.
// AccessRange calls it once per call, so that walk and accessLine — the
// per-line code — never check.
func (c *Cache) ensureDirectory() {
	if c.tags == nil {
		c.tags = make([]uint64, c.ways())
	}
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// RestoreStats rewinds the counters to a previously captured Stats value
// without disturbing cache contents. Rollback paths use it to undo the
// counter side of accesses whose line-state side never happened.
func (c *Cache) RestoreStats(s Stats) { c.stats = s }

// State is a deep snapshot of a cache's full mutable state: resident lines,
// LRU order and counters. It is opaque; use Checkpoint/Restore.
type State struct {
	tags  []uint64 // nil: the directory was untouched (empty) at the checkpoint
	ways  int
	stats Stats
}

// Checkpoint captures the complete cache state (lines, LRU order, counters)
// for a later Restore. The copy is one 8-byte tag per line (8,192 tags,
// 64 kB, for the 512 kB testbed cache; nothing for a cache no access has
// touched yet). It is for regions that access memory: a caller that knows
// its region performs no accesses should checkpoint Stats alone and check
// on the way back that they did not move — package mpi's speculation
// checkpoints do exactly that, and never call Checkpoint. Outside tests,
// Checkpoint and Restore serve only bench's cache.checkpoint.us probe.
func (c *Cache) Checkpoint() State {
	s := State{ways: c.ways(), stats: c.stats}
	if c.tags != nil {
		s.tags = make([]uint64, len(c.tags))
		copy(s.tags, c.tags)
	}
	return s
}

// Restore rewinds the cache to a previously captured State. The checkpoint
// must come from a cache of the same geometry; restoring a snapshot from a
// differently shaped cache panics.
func (c *Cache) Restore(s State) {
	if s.ways != c.ways() {
		panic(fmt.Sprintf("cache: checkpoint geometry mismatch: %d lines vs %d", s.ways, c.ways()))
	}
	if s.tags == nil {
		clear(c.tags)
	} else {
		c.ensureDirectory()
		copy(c.tags, s.tags)
	}
	c.stats = s.stats
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// accessLine looks up (and on miss, fills) the given line ID,
// maintaining LRU order. It reports whether the access hit.
func (c *Cache) accessLine(line uint64) bool {
	tag := line + 1
	set := int(line&c.setMask) * c.assoc
	ways := c.tags[set : set+c.assoc]
	if ways[0] == tag {
		return true
	}
	for i := 1; i < len(ways); i++ {
		if ways[i] == tag {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	// Miss: evict LRU (last way), shift, insert at MRU.
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = tag
	return false
}

// AccessRange simulates n accesses starting at base with the given byte
// stride between consecutive accesses, and returns the hit and miss counts
// for this stream.
//
// An access that falls on the same line as the one before it hits that
// set's MRU way and changes nothing. So for 0 < strideBytes <= LineBytes
// (and a stream that does not wrap the address space), where the stream
// visits every line from its first to its last in order, the directory is
// walked once per line instead of once per element: the misses are the
// lines that miss and the hits are everything else. Every other stride
// (zero, negative, longer than a line) falls through to one lookup per
// element.
func (c *Cache) AccessRange(base uint64, n, strideBytes int) (hits, misses uint64) {
	if n <= 0 {
		return 0, 0
	}
	c.ensureDirectory()
	end := base + uint64(n-1)*uint64(strideBytes)
	if strideBytes > 0 && strideBytes <= c.cfg.LineBytes && end >= base {
		first, last := base>>c.lineShift, end>>c.lineShift
		misses = c.walk(first<<c.lineShift, int(last-first)+1, uint64(c.cfg.LineBytes))
	} else {
		misses = c.walk(base, n, uint64(strideBytes))
	}
	hits = uint64(n) - misses
	c.stats.Accesses += uint64(n)
	c.stats.Hits += hits
	c.stats.Misses += misses
	return hits, misses
}

// walk performs accessLine on the lines of n addresses, stride bytes apart
// (modulo 2^64) from addr on, and returns how many missed.
//
// The testbed's 8-way sets get a fixed-width body, as a streaming workload
// mostly misses or hits deep in the LRU order: the ways are compared from
// the MRU end while being carried in registers, so the LRU shift after a hit
// at way i (or a miss) is i+1 (or 8) plain stores, with no call per line
// and no memmove.
func (c *Cache) walk(addr uint64, n int, stride uint64) (misses uint64) {
	if c.assoc != 8 {
		for ; n > 0; n-- {
			if !c.accessLine(addr >> c.lineShift) {
				misses++
			}
			addr += stride
		}
		return misses
	}
	// lineShift is below 64 by construction; saying so spares the loop the
	// compiler's guard for wider shifts.
	tags, shift, mask := c.tags, c.lineShift&63, c.setMask
	for ; n > 0; n-- {
		line := addr >> shift
		addr += stride
		tag := line + 1
		set := int(line&mask) * 8
		if tags[set] == tag {
			continue
		}
		w := (*[8]uint64)(tags[set : set+8])
		t0 := w[0]
		t1 := w[1]
		if t1 == tag {
			w[0], w[1] = tag, t0
			continue
		}
		t2 := w[2]
		if t2 == tag {
			w[0], w[1], w[2] = tag, t0, t1
			continue
		}
		t3 := w[3]
		if t3 == tag {
			w[0], w[1], w[2], w[3] = tag, t0, t1, t2
			continue
		}
		t4 := w[4]
		if t4 == tag {
			w[0], w[1], w[2], w[3], w[4] = tag, t0, t1, t2, t3
			continue
		}
		t5 := w[5]
		if t5 == tag {
			w[0], w[1], w[2], w[3], w[4], w[5] = tag, t0, t1, t2, t3, t4
			continue
		}
		t6 := w[6]
		if t6 == tag {
			w[0], w[1], w[2], w[3], w[4], w[5], w[6] = tag, t0, t1, t2, t3, t4, t5
			continue
		}
		if w[7] != tag {
			misses++
		}
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = tag, t0, t1, t2, t3, t4, t5, t6
	}
	return misses
}

// Count adds an access stream's hits and misses to the counters, as
// AccessRange would, without touching the directory: the counter side of a
// stream whose lines a split walk (Part) has already walked.
func (c *Cache) Count(hits, misses uint64) {
	c.stats.Accesses += hits + misses
	c.stats.Hits += hits
	c.stats.Misses += misses
}

// A Part is one of the parts a cache splits into by set. Part k of P (a
// power of two no larger than the set count) holds the k-th of P equal,
// contiguous ranges of sets, and walks only the lines that map there. LRU
// sets are independent of each other, so those lines hit and miss in the
// part exactly as in the whole cache, and the parts' misses for a sequence
// of streams sum, stream by stream, to the misses AccessRange counts on
// one whole cache: the parts can walk the same streams on different
// cores, each keeping a directory of only its own sets. A Part is not safe
// for concurrent use; the zero value is no part until Reset.
//
// The ranges are contiguous, not the sets of each residue modulo P: an
// ascending stream then stays in one part for a run of elements, up to
// the end of that range's bytes, and each run is walked whole by the loop
// AccessRange uses, with no test per element. A strided stream of the
// residue split would change part at nearly every element.
type Part struct {
	c Cache // the part's sets, indexed by line as in the whole cache
	// k and pm are the part's index and P-1; the part of an address is
	// its range of sets, addr>>rangeShift, modulo P.
	k, pm      uint64
	rangeShift uint
}

// Reset makes p part k of parts of an empty cache of geometry cfg, keeping
// its directory's storage when that is large enough. Like New it panics on
// an invalid geometry, and also on a part count that is not a power of two
// no larger than the set count, or a k outside [0, parts).
func (p *Part) Reset(cfg Config, k, parts int) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	if parts <= 0 || parts&(parts-1) != 0 || parts > sets || k < 0 || k >= parts {
		panic(fmt.Sprintf("cache: part %d of %d of a cache with %d sets", k, parts, sets))
	}
	shift := log2(cfg.LineBytes)
	n := sets / parts * cfg.Assoc
	tags := p.c.tags
	if cap(tags) >= n {
		tags = tags[:n]
		clear(tags)
	} else {
		tags = make([]uint64, n)
	}
	p.c = Cache{cfg: cfg, lineShift: shift, setMask: uint64(sets/parts - 1), tags: tags, assoc: cfg.Assoc}
	p.k, p.pm = uint64(k), uint64(parts-1)
	p.rangeShift = shift + log2(sets/parts)
}

// Misses walks the lines of an AccessRange(base, n, strideBytes) call that
// map to p's sets, in the call's order, and returns how many missed.
func (p *Part) Misses(base uint64, n, strideBytes int) uint64 {
	if n <= 0 {
		return 0
	}
	c := &p.c
	end := base + uint64(n-1)*uint64(strideBytes)
	if strideBytes > 0 && end >= base {
		if strideBytes <= c.cfg.LineBytes {
			// AccessRange's line-granular path: every line from the first
			// to the last, once.
			first, last := base>>c.lineShift, end>>c.lineShift
			return p.runs(first<<c.lineShift, int(last-first)+1, uint64(c.cfg.LineBytes))
		}
		return p.runs(base, n, uint64(strideBytes))
	}
	// Zero and negative strides, and streams that wrap the address space,
	// are rare: one element at a time.
	var misses uint64
	for addr := base; n > 0; n-- {
		if (addr>>p.rangeShift)&p.pm == p.k && !c.accessLine(addr>>c.lineShift) {
			misses++
		}
		addr += uint64(strideBytes)
	}
	return misses
}

// runs walks the elements in p's sets of an ascending stream that does not
// wrap the address space: a run per range of sets the stream crosses,
// each up to the end of its range, skipping the ranges of other parts. A
// part that is the whole cache walks the stream in one run.
func (p *Part) runs(addr uint64, n int, stride uint64) (misses uint64) {
	if p.pm == 0 {
		return p.c.walk(addr, n, stride)
	}
	for n > 0 {
		r := addr >> p.rangeShift
		if d := (p.k - r) & p.pm; d != 0 {
			// The first element at or past the next range of this part. A
			// range past the top of the address space wraps to below addr
			// and so skips the rest of the stream.
			skip := (((r+d)<<p.rangeShift)-addr-1)/stride + 1
			if skip >= uint64(n) {
				break
			}
			addr += skip * stride
			n -= int(skip)
			continue
		}
		run := ((addr|(1<<p.rangeShift-1))-addr)/stride + 1
		if run > uint64(n) {
			run = uint64(n)
		}
		misses += p.c.walk(addr, int(run), stride)
		addr += run * stride
		n -= int(run)
	}
	return misses
}

// log2 returns the base-2 logarithm of a power of two.
func log2(v int) uint {
	shift := uint(0)
	for 1<<shift != v {
		shift++
	}
	return shift
}
