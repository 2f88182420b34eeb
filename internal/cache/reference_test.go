package cache

import "fmt"

// This file is the cache simulator exactly as it stood before the
// line-granular fast path, the tag-folded valid bit and the fixed-width
// 8-way body were introduced, kept as a test-only reference: refCache is the
// old Cache with only its identifiers renamed (Cache → refCache, State →
// refState, New → newRef) and its two unused accessors, Config and LineBytes,
// dropped. The differential tests and the fuzz target in
// differential_test.go drive it in lockstep with Cache and require identical
// per-call results, counters and residency, which is what lets the production
// simulator be optimised without moving a simulated statistic. Do not
// "improve" it.

// refCache is a simulated set-associative cache. It is not safe for concurrent
// use; in the SCMD model each simulated rank owns a private refCache.
type refCache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	// ways holds, per set, the resident line IDs in LRU order
	// (index 0 = most recently used). A zero entry means "empty" and is
	// disambiguated by the valid bitmask.
	ways  []uint64
	valid []bool
	assoc int
	stats Stats
}

// newRef constructs a cache simulator for the given geometry.
// It panics if the configuration is invalid, as a cache is always
// constructed from static, programmer-chosen parameters.
func newRef(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	sets := cfg.Sets()
	return &refCache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      make([]uint64, sets*cfg.Assoc),
		valid:     make([]bool, sets*cfg.Assoc),
		assoc:     cfg.Assoc,
	}
}

// Stats returns the cumulative counters.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *refCache) ResetStats() { c.stats = Stats{} }

// RestoreStats rewinds the counters to a previously captured Stats value
// without disturbing cache contents. Rollback paths use it to undo the
// counter side of accesses whose line-state side never happened.
func (c *refCache) RestoreStats(s Stats) { c.stats = s }

// refState is a deep snapshot of a cache's full mutable state: resident lines,
// LRU order, valid bits and counters. It is opaque; use Checkpoint/Restore.
type refState struct {
	ways  []uint64
	valid []bool
	stats Stats
}

// Checkpoint captures the complete cache state (lines, LRU order, counters)
// for a later Restore. The copy is proportional to the cache's line count
// (~8k entries for the 512 kB testbed cache), so callers on hot paths that
// know their region performs no accesses should checkpoint Stats alone.
func (c *refCache) Checkpoint() refState {
	s := refState{
		ways:  make([]uint64, len(c.ways)),
		valid: make([]bool, len(c.valid)),
		stats: c.stats,
	}
	copy(s.ways, c.ways)
	copy(s.valid, c.valid)
	return s
}

// Restore rewinds the cache to a previously captured refState. The checkpoint
// must come from a cache of the same geometry; restoring a snapshot from a
// differently shaped cache panics.
func (c *refCache) Restore(s refState) {
	if len(s.ways) != len(c.ways) || len(s.valid) != len(c.valid) {
		panic(fmt.Sprintf("cache: checkpoint geometry mismatch: %d/%d lines vs %d/%d",
			len(s.ways), len(s.valid), len(c.ways), len(c.valid)))
	}
	copy(c.ways, s.ways)
	copy(c.valid, s.valid)
	c.stats = s.stats
}

// Flush invalidates every line and leaves the counters untouched.
func (c *refCache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// accessLine looks up (and on miss, fills) the given line ID,
// maintaining LRU order. It reports whether the access hit.
func (c *refCache) accessLine(line uint64) bool {
	set := int(line&c.setMask) * c.assoc
	ways := c.ways[set : set+c.assoc]
	valid := c.valid[set : set+c.assoc]
	for i := 0; i < c.assoc; i++ {
		if valid[i] && ways[i] == line {
			// Move to MRU position.
			copy(ways[1:i+1], ways[0:i])
			ways[0] = line
			return true
		}
	}
	// Miss: evict LRU (last way), shift, insert at MRU.
	copy(ways[1:], ways[:c.assoc-1])
	copy(valid[1:], valid[:c.assoc-1])
	ways[0] = line
	valid[0] = true
	return false
}

// Access simulates a single data access at the given virtual byte address
// and reports whether it hit.
func (c *refCache) Access(addr uint64) bool {
	c.stats.Accesses++
	if c.accessLine(addr >> c.lineShift) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// AccessRange simulates n accesses starting at base with the given byte
// stride between consecutive accesses, and returns the hit and miss counts
// for this stream. Consecutive accesses that fall on the same line as the
// previous access are counted as hits without a directory lookup, which is
// exact for monotone streams.
func (c *refCache) AccessRange(base uint64, n, strideBytes int) (hits, misses uint64) {
	if n <= 0 {
		return 0, 0
	}
	lastLine := ^uint64(0)
	addr := base
	for i := 0; i < n; i++ {
		line := addr >> c.lineShift
		if line == lastLine {
			hits++
		} else {
			lastLine = line
			if c.accessLine(line) {
				hits++
			} else {
				misses++
			}
		}
		addr += uint64(strideBytes)
	}
	c.stats.Accesses += uint64(n)
	c.stats.Hits += hits
	c.stats.Misses += misses
	return hits, misses
}

// Touch loads the [base, base+bytes) range sequentially, warming the cache.
// It is the write-allocate analog of initializing an array.
func (c *refCache) Touch(base uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	n := (bytes + c.cfg.LineBytes - 1) / c.cfg.LineBytes
	c.AccessRange(base, n, c.cfg.LineBytes)
}

// Resident reports whether the line containing addr is currently cached,
// without affecting LRU order or counters.
func (c *refCache) Resident(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.assoc
	for i := 0; i < c.assoc; i++ {
		if c.valid[set+i] && c.ways[set+i] == line {
			return true
		}
	}
	return false
}
