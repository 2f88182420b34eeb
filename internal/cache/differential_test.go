package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffGeometries are the cache shapes the differential oracle covers:
// associativity 1, 2, 8 and full, line sizes 32, 64 and 128, plus the
// testbed geometry every production run uses (the only one that reaches
// access8).
var diffGeometries = []Config{
	{SizeBytes: 2048, LineBytes: 32, Assoc: 1},
	{SizeBytes: 4096, LineBytes: 64, Assoc: 1},
	{SizeBytes: 4096, LineBytes: 64, Assoc: 2},
	{SizeBytes: 8192, LineBytes: 128, Assoc: 2},
	{SizeBytes: 2048, LineBytes: 32, Assoc: 8},
	{SizeBytes: 8192, LineBytes: 64, Assoc: 8},
	{SizeBytes: 16384, LineBytes: 128, Assoc: 8},
	{SizeBytes: 4096, LineBytes: 64, Assoc: 64}, // fully associative
	{SizeBytes: 2048, LineBytes: 128, Assoc: 16},
	XeonL2(),
}

// lockstep drives a Cache and the reference implementation with the same
// operations and fails the test on the first observable difference. The
// reference's single-access, Touch, Flush and ResetStats calls are matched
// here by the calls production makes: AccessRange, Restore of an untouched
// cache's Checkpoint, and RestoreStats.
type lockstep struct {
	t       testing.TB
	cfg     Config
	got     *Cache
	want    *refCache
	touched map[uint64]struct{} // line IDs any call so far has addressed
	recent  []uint64            // line IDs the current call addressed
	step    int
}

func newLockstep(t testing.TB, cfg Config) *lockstep {
	return &lockstep{t: t, cfg: cfg, got: New(cfg), want: newRef(cfg), touched: map[uint64]struct{}{}}
}

// touch records the lines of an n-element stream, with the same wrapping
// address arithmetic as AccessRange.
func (l *lockstep) touch(base uint64, n, stride int) {
	addr := base
	for i := 0; i < n; i++ {
		line := addr / uint64(l.cfg.LineBytes)
		l.touched[line] = struct{}{}
		l.recent = append(l.recent, line)
		addr += uint64(stride)
	}
}

// check compares, after every call: the counters; the whole directory, way
// by way (the reference's valid ways must hold the same lines in the same
// LRU order, its invalid ways must be empty here), which decides the
// residency of every line there is; and residency itself (the reference's
// Resident against resident's reading of the tags) for each line the call
// addressed. Every 32nd step, and at the end of a trace through checkAll,
// residency is also compared for every line touched since the start.
func (l *lockstep) check(op string) {
	l.step++
	if g, w := l.got.Stats(), l.want.Stats(); g != w {
		l.t.Fatalf("%+v step %d %s: stats %+v, reference %+v", l.cfg, l.step, op, g, w)
	}
	for i, valid := range l.want.valid {
		want, tag := uint64(0), uint64(0)
		if valid {
			want = l.want.ways[i] + 1
		}
		if l.got.tags != nil { // nil: no access yet, every way empty
			tag = l.got.tags[i]
		}
		if tag != want {
			l.t.Fatalf("%+v step %d %s: set %d way %d holds tag %#x, reference %#x",
				l.cfg, l.step, op, i/l.cfg.Assoc, i%l.cfg.Assoc, tag, want)
		}
	}
	for _, line := range l.recent {
		l.checkResident(op, line)
	}
	l.recent = l.recent[:0]
	if l.step%32 == 0 {
		l.checkAll(op)
	}
}

func (l *lockstep) checkAll(op string) {
	for line := range l.touched {
		l.checkResident(op, line)
	}
}

func (l *lockstep) checkResident(op string, line uint64) {
	addr := line * uint64(l.cfg.LineBytes)
	if g, w := resident(l.got, addr), l.want.Resident(addr); g != w {
		l.t.Fatalf("%+v step %d %s: line %#x resident=%v, reference %v", l.cfg, l.step, op, line, g, w)
	}
}

func (l *lockstep) accessRange(base uint64, n, stride int) {
	l.t.Helper()
	l.touch(base, n, stride)
	gh, gm := l.got.AccessRange(base, n, stride)
	wh, wm := l.want.AccessRange(base, n, stride)
	op := fmt.Sprintf("AccessRange(%#x, %d, %d)", base, n, stride)
	if gh != wh || gm != wm {
		l.t.Fatalf("%+v step %d %s = (%d, %d), reference (%d, %d)", l.cfg, l.step+1, op, gh, gm, wh, wm)
	}
	l.check(op)
}

// access is the reference's single access against a one-element stream.
func (l *lockstep) access(addr uint64) {
	l.t.Helper()
	l.touch(addr, 1, 0)
	op := fmt.Sprintf("Access(%#x)", addr)
	gh, _ := l.got.AccessRange(addr, 1, 0)
	if g, w := gh == 1, l.want.Access(addr); g != w {
		l.t.Fatalf("%+v step %d %s = %v, reference %v", l.cfg, l.step+1, op, g, w)
	}
	l.check(op)
}

// touchBytes is the reference's Touch against a line-strided stream over
// the same lines.
func (l *lockstep) touchBytes(base uint64, bytes int) {
	l.t.Helper()
	if bytes > 0 {
		n := (bytes + l.cfg.LineBytes - 1) / l.cfg.LineBytes
		l.touch(base, n, l.cfg.LineBytes)
		l.got.AccessRange(base, n, l.cfg.LineBytes)
	}
	l.want.Touch(base, bytes)
	l.check(fmt.Sprintf("Touch(%#x, %d)", base, bytes))
}

// flush is the reference's Flush against restoring the directory of an
// untouched cache, with the counters put back as they were.
func (l *lockstep) flush(op string) {
	st := l.got.Stats()
	l.got.Restore(New(l.cfg).Checkpoint())
	l.got.RestoreStats(st)
	l.want.Flush()
	l.check(op)
}

// resident reports whether the line containing addr is in c's directory,
// without touching its LRU order or counters.
func resident(c *Cache, addr uint64) bool {
	if c.tags == nil {
		return false
	}
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.assoc
	return slices.Contains(c.tags[set:set+c.assoc], line+1)
}

// randomStream draws one AccessRange call from the classes the fast path
// distinguishes: stride zero, negative, sub-line, exactly a line and
// multi-line; n of 0, 1, a few and many; aligned and unaligned bases inside
// a window a few times the cache's size (so streams revisit each other's
// lines), and now and then a base next to the top of the address space.
func randomStream(rng *rand.Rand, cfg Config) (base uint64, n, stride int) {
	line := cfg.LineBytes
	switch rng.Intn(8) {
	case 0:
		stride = 0
	case 1:
		stride = -(1 + rng.Intn(line)) // negative, within a line
	case 2:
		stride = -(line + 1 + rng.Intn(4*line)) // negative, multi-line
	case 3, 4:
		stride = 1 + rng.Intn(line-1) // sub-line, 8 most of the time below
		if rng.Intn(2) == 0 {
			stride = 8
		}
	case 5:
		stride = line
	default:
		stride = line + 1 + rng.Intn(40*line) // multi-line, mostly unaligned
		if rng.Intn(2) == 0 {
			stride = 8 * (line/8 + 1 + rng.Intn(300)) // a row of doubles
		}
	}
	switch rng.Intn(6) {
	case 0:
		n = 0
	case 1:
		n = 1
	case 2:
		n = 2 + rng.Intn(8)
	case 3:
		n = 1000 + rng.Intn(3000)
	default:
		n = 10 + rng.Intn(300)
	}
	window := uint64(4 * cfg.SizeBytes)
	base = uint64(rng.Int63n(int64(window)))
	if rng.Intn(3) == 0 {
		base &^= uint64(line - 1)
	}
	if stride < 0 {
		base += window // descending streams mostly stay above zero
	}
	if rng.Intn(40) == 0 {
		base = ^uint64(0) - uint64(rng.Intn(8*line)) // wraps when ascending
	}
	return base, n, stride
}

// runRandomTrace drives steps random operations through both caches.
func runRandomTrace(t testing.TB, cfg Config, seed int64, steps int) *lockstep {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := newLockstep(t, cfg)
	// The directory is allocated at the first access: every call that can
	// come before one must already behave as on an empty directory.
	l.checkResident("Resident on an untouched cache", uint64(rng.Int63n(int64(4*cfg.SizeBytes))))
	gotCP, wantCP := l.got.Checkpoint(), l.want.Checkpoint()
	l.got.Restore(gotCP)
	l.want.Restore(wantCP)
	l.check("Restore on an untouched cache")
	l.flush("Flush on an untouched cache")
	stats := l.got.Stats()
	for i := 0; i < steps; i++ {
		switch k := rng.Intn(40); {
		case k < 26:
			l.accessRange(randomStream(rng, cfg))
		case k < 30:
			l.access(uint64(rng.Int63n(int64(4 * cfg.SizeBytes))))
		case k < 33:
			l.touchBytes(uint64(rng.Int63n(int64(4*cfg.SizeBytes))), rng.Intn(cfg.SizeBytes)-8)
		case k < 34:
			l.flush("Flush")
		case k < 36:
			gotCP, wantCP = l.got.Checkpoint(), l.want.Checkpoint()
			l.check("Checkpoint")
		case k < 38:
			l.got.Restore(gotCP)
			l.want.Restore(wantCP)
			l.check("Restore")
		case k < 39:
			stats = l.got.Stats()
			if rng.Intn(4) == 0 {
				l.got.RestoreStats(Stats{})
				l.want.ResetStats()
			}
			l.check("Stats/ResetStats")
		default:
			l.got.RestoreStats(stats)
			l.want.RestoreStats(stats)
			l.check("RestoreStats")
		}
	}
	l.checkAll("end of trace")
	return l
}

// TestCacheMatchesReference is the differential oracle: seeded random
// traces over every geometry, with the reference cache as the judge after
// every single call.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range diffGeometries {
		cfg := cfg
		t.Run(fmt.Sprintf("%dB_line%d_assoc%d", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc), func(t *testing.T) {
			steps := 400
			if cfg.SizeBytes > 64*1024 {
				steps = 150 // 8,192 ways to compare per step
			}
			for seed := int64(1); seed <= 6; seed++ {
				runRandomTrace(t, cfg, seed, steps)
			}
		})
	}
}

// TestAccessRangeBoundaryStreams pins the edges of the line-granular path
// by hand: streams that end exactly on, one byte before and one byte after a
// line boundary, strides of exactly a line from unaligned bases, and streams
// that wrap the address space (which must take the per-element path).
func TestAccessRangeBoundaryStreams(t *testing.T) {
	for _, cfg := range diffGeometries {
		l := newLockstep(t, cfg)
		line := cfg.LineBytes
		for _, base := range []uint64{0, 1, uint64(line - 1), uint64(line), uint64(3*line + 5), 1 << 40} {
			for _, stride := range []int{1, 7, 8, line - 1, line, line + 1, 2 * line, 0, -1, -8, -line} {
				for _, n := range []int{0, 1, 2, line / 8, line/8 + 1, line, line + 1, 3*line - 1} {
					b := base
					if stride < 0 {
						b += uint64(-stride * n)
					}
					l.accessRange(b, n, stride)
				}
			}
		}
		top := ^uint64(0)
		l.accessRange(top-uint64(line), 5, line/2)
		l.accessRange(top, 3, 1)
		l.accessRange(top-7, 2, 8)
		l.accessRange(top-uint64(3*line), 9, line)
	}
}

// FuzzAccessRangeVsReference warms both caches with a seeded random trace
// and then lets the fuzzer choose one AccessRange call freely.
func FuzzAccessRangeVsReference(f *testing.F) {
	for g := range diffGeometries {
		rng := rand.New(rand.NewSource(int64(g) + 1))
		for i := 0; i < 6; i++ {
			base, n, stride := randomStream(rng, diffGeometries[g])
			f.Add(uint8(g), int64(i), base, uint16(n), int32(stride))
		}
	}
	f.Add(uint8(9), int64(3), ^uint64(0)-64, uint16(9), int32(64))
	f.Fuzz(func(t *testing.T, geom uint8, seed int64, base uint64, n uint16, stride int32) {
		cfg := diffGeometries[int(geom)%len(diffGeometries)]
		if cfg.SizeBytes > 64*1024 {
			cfg.SizeBytes = 64 * 1024 // keep the testbed's 8 ways and 64 B lines, shrink the sweep
		}
		l := runRandomTrace(t, cfg, seed, 12)
		l.accessRange(base, int(n), int(stride))
		l.accessRange(base, int(n), int(stride)) // and once more over a warm cache
	})
}
