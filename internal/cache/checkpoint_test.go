package cache

import (
	"testing"
	"unsafe"
)

// TestCheckpointRestoresLinesAndStats verifies Restore rewinds resident
// lines, LRU order and counters to the snapshot.
func TestCheckpointRestoresLinesAndStats(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2}
	c := New(cfg)
	c.AccessRange(0, 32, 64)
	cp := c.Checkpoint()
	wantStats := c.Stats()

	// Evict everything with a conflicting sweep, then restore.
	c.AccessRange(1<<20, 256, 64)
	if resident(c, 0) {
		t.Fatal("line 0 should have been evicted by the sweep")
	}
	c.Restore(cp)
	if c.Stats() != wantStats {
		t.Errorf("stats: got %+v, want %+v", c.Stats(), wantStats)
	}
	if !resident(c, 0) || !resident(c, 31*64) {
		t.Error("restored cache lost lines resident at checkpoint")
	}
	if resident(c, 1<<20) {
		t.Error("restored cache kept a line accessed after checkpoint")
	}

	// Hit/miss behaviour after restore must match a fresh replay: the next
	// access to a checkpointed line hits.
	h, m := c.AccessRange(0, 1, 64)
	if h != 1 || m != 0 {
		t.Errorf("post-restore access: got %d hits %d misses, want 1/0", h, m)
	}
}

// TestRestoreRejectsGeometryMismatch verifies snapshots cannot cross cache
// geometries.
func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	a := New(Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2})
	b := New(Config{SizeBytes: 8192, LineBytes: 64, Assoc: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic restoring a mismatched snapshot")
		}
	}()
	b.Restore(a.Checkpoint())
}

// TestNewAllocatesNoDirectory: the directory (64 kB for the testbed
// geometry) is allocated at the first access, so constructing a cache that
// is never accessed costs only the Cache value, and a checkpoint taken
// before any access restores to an empty directory.
func TestNewAllocatesNoDirectory(t *testing.T) {
	var c *Cache
	if n := testing.AllocsPerRun(10, func() { c = New(XeonL2()) }); n > 1 {
		t.Errorf("New(XeonL2()) makes %v allocations, want the Cache value alone", n)
	}
	if size := unsafe.Sizeof(*c); size >= 1024 {
		t.Errorf("a Cache value is %d bytes, want < 1 kB", size)
	}
	cp := c.Checkpoint()
	c.AccessRange(0, 64, 64)
	if !resident(c, 0) {
		t.Fatal("line 0 should be resident after the sweep")
	}
	c.Restore(cp)
	if resident(c, 0) || c.Stats() != (Stats{}) {
		t.Errorf("restore to an untouched checkpoint left line 0 resident=%v, stats %+v", resident(c, 0), c.Stats())
	}
	if h, m := c.AccessRange(0, 1, 64); h != 0 || m != 1 {
		t.Errorf("access after restore: %d hits %d misses, want a miss", h, m)
	}
}
