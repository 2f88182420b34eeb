package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"xeon", XeonL2(), true},
		{"direct mapped", Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 1}, true},
		{"fully associative", Config{SizeBytes: 4096, LineBytes: 64, Assoc: 64}, true},
		{"tiny", Config{SizeBytes: 256, LineBytes: 64, Assoc: 2}, true},
		{"zero size", Config{SizeBytes: 0, LineBytes: 64, Assoc: 1}, false},
		{"negative assoc", Config{SizeBytes: 1024, LineBytes: 64, Assoc: -1}, false},
		{"line not pow2", Config{SizeBytes: 1024, LineBytes: 48, Assoc: 2}, false},
		{"size not multiple of line", Config{SizeBytes: 1000, LineBytes: 64, Assoc: 2}, false},
		{"lines not divisible by assoc", Config{SizeBytes: 64 * 3, LineBytes: 64, Assoc: 2}, false},
		{"sets not pow2", Config{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tt.cfg, err, tt.ok)
			}
		})
	}
}

func TestXeonGeometry(t *testing.T) {
	cfg := XeonL2()
	if got, want := cfg.Sets(), 1024; got != want {
		t.Errorf("Sets() = %d, want %d", got, want)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 64, Assoc: 1})
}

// hit makes one access, a one-element stream, and reports whether it hit.
func hit(c *Cache, addr uint64) bool {
	h, _ := c.AccessRange(addr, 1, 0)
	return h == 1
}

func TestColdMissThenHit(t *testing.T) {
	c := New(XeonL2())
	if hit(c, 0x1000) {
		t.Error("first access should miss")
	}
	if !hit(c, 0x1000) {
		t.Error("second access to same address should hit")
	}
	if !hit(c, 0x1008) {
		t.Error("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 3/2/1", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: size = 2*2*64 bytes.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Assoc: 2})
	// Three distinct lines mapping to set 0: line IDs 0, 2, 4 (even => set 0).
	a := uint64(0 * 64)
	b := uint64(2 * 64)
	d := uint64(4 * 64)
	hit(c, a) // miss, {a}
	hit(c, b) // miss, {b,a}
	hit(c, a) // hit,  {a,b}
	hit(c, d) // miss, evicts b => {d,a}
	if !resident(c, a) {
		t.Error("a should remain resident (was MRU before d)")
	}
	if resident(c, b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !resident(c, d) {
		t.Error("d should be resident")
	}
	if hit(c, b) { // must miss again
		t.Error("evicted line b should miss")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 1}) // 2 sets
	a := uint64(0)
	b := uint64(128) // same set as a
	hit(c, a)
	hit(c, b) // evicts a
	if hit(c, a) {
		t.Error("direct-mapped conflict: a should have been evicted by b")
	}
}

func TestAccessRangeSequentialMissRate(t *testing.T) {
	c := New(XeonL2())
	// 8 doubles per 64 B line: sequential pass should miss once per line.
	n := 4096
	hits, misses := c.AccessRange(0, n, 8)
	if hits+misses != uint64(n) {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, n)
	}
	if want := uint64(n / 8); misses != want {
		t.Errorf("sequential misses = %d, want %d (one per line)", misses, want)
	}
}

func TestAccessRangeStridedMissRate(t *testing.T) {
	c := New(XeonL2())
	// Stride of one full line: every access a distinct line, all cold misses.
	n := 1024
	hits, misses := c.AccessRange(0, n, 64)
	if hits != 0 || misses != uint64(n) {
		t.Errorf("strided cold pass: hits=%d misses=%d, want 0/%d", hits, misses, n)
	}
}

func TestAccessRangeCacheResidentReuse(t *testing.T) {
	c := New(XeonL2())
	n := 1000 // 8000 B, far below 512 kB
	c.AccessRange(0, n, 8)
	hits, misses := c.AccessRange(0, n, 8)
	if misses != 0 {
		t.Errorf("warm resident pass misses = %d, want 0", misses)
	}
	if hits != uint64(n) {
		t.Errorf("warm resident pass hits = %d, want %d", hits, n)
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := XeonL2()
	c := New(cfg)
	// Stream 4x the cache capacity sequentially, then re-stream: the first
	// portion must have been evicted, so the second pass misses once per line
	// again (within rounding).
	bytes := 4 * cfg.SizeBytes
	n := bytes / 8
	c.AccessRange(0, n, 8)
	_, misses := c.AccessRange(0, n, 8)
	if want := uint64(n / 8); misses < want/2 {
		t.Errorf("second pass over 4x-capacity stream: misses=%d, want close to %d", misses, want)
	}
}

func TestAccessRangeZeroAndNegative(t *testing.T) {
	c := New(XeonL2())
	if h, m := c.AccessRange(0, 0, 8); h != 0 || m != 0 {
		t.Errorf("n=0: got %d/%d, want 0/0", h, m)
	}
	if h, m := c.AccessRange(0, -5, 8); h != 0 || m != 0 {
		t.Errorf("n<0: got %d/%d, want 0/0", h, m)
	}
	if c.Stats().Accesses != 0 {
		t.Error("no accesses should have been recorded")
	}
}

// Property: for any access sequence, accesses == hits + misses, and
// replaying the identical sequence immediately can only raise the hit count.
func TestPropertyCountsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%200) + 1
		c := New(Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2})
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 16))
		}
		var hits1 uint64
		for _, a := range addrs {
			if hit(c, a) {
				hits1++
			}
		}
		st := c.Stats()
		if st.Accesses != st.Hits+st.Misses || st.Hits != hits1 {
			return false
		}
		var hits2 uint64
		for _, a := range addrs {
			if hit(c, a) {
				hits2++
			}
		}
		return hits2 >= hits1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a fully-associative cache streaming a working set that fits
// entirely has zero misses on the second pass (LRU inclusion property).
func TestPropertyInclusionSmallWorkingSet(t *testing.T) {
	f := func(nRaw uint8) bool {
		lines := int(nRaw%32) + 1                                      // <= 32 lines
		c := New(Config{SizeBytes: 64 * 64, LineBytes: 64, Assoc: 64}) // 64-line fully assoc
		for i := 0; i < lines; i++ {
			hit(c, uint64(i*64))
		}
		for i := 0; i < lines; i++ {
			if !hit(c, uint64(i*64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: higher associativity never increases misses for a repeated
// small-conflict workload (stack property holds for this access pattern).
func TestAssociativityReducesConflictMisses(t *testing.T) {
	workload := func(c *Cache) uint64 {
		// Two lines that conflict in a direct-mapped cache of 2 sets.
		for i := 0; i < 50; i++ {
			hit(c, 0)
			hit(c, 128)
		}
		return c.Stats().Misses
	}
	direct := workload(New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 1}))
	assoc := workload(New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 2}))
	if assoc >= direct {
		t.Errorf("2-way misses (%d) should be < direct-mapped misses (%d)", assoc, direct)
	}
	if assoc != 2 {
		t.Errorf("2-way misses = %d, want 2 cold misses only", assoc)
	}
}

func BenchmarkAccessRangeSequential(b *testing.B) {
	c := New(XeonL2())
	b.ReportAllocs()
	for b.Loop() {
		c.AccessRange(0, 8192, 8)
	}
}

func BenchmarkAccessRangeStrided(b *testing.B) {
	c := New(XeonL2())
	b.ReportAllocs()
	for b.Loop() {
		c.AccessRange(0, 8192, 1024)
	}
}
