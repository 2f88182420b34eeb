package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stream is one AccessRange call's arguments.
type stream struct {
	base      uint64
	n, stride int
}

// partGeometry builds a valid geometry from three free bytes: 1 to 64
// sets, lines of 8 to 128 bytes, and associativity 1, 2, 3, 4, 8 or 16.
func partGeometry(sets, line, assoc uint8) Config {
	ways := []int{1, 2, 3, 4, 8, 16}[int(assoc)%6]
	lineBytes := 8 << (int(line) % 5)
	return Config{SizeBytes: (1 << (int(sets) % 7)) * ways * lineBytes, LineBytes: lineBytes, Assoc: ways}
}

// checkPartsSumToWhole walks streams through one whole cache and, for
// every power-of-two split up to the set count, through each part, and
// fails unless every stream's misses summed over the parts equal the whole
// cache's. The parts are reused across splits, as a walk recycles them.
func checkPartsSumToWhole(t *testing.T, cfg Config, streams []stream) {
	t.Helper()
	whole := New(cfg)
	want := make([]uint64, len(streams))
	for i, s := range streams {
		_, want[i] = whole.AccessRange(s.base, s.n, s.stride)
	}
	parts := make([]Part, cfg.Sets())
	for split := 1; split <= cfg.Sets(); split *= 2 {
		got := make([]uint64, len(streams))
		for k := 0; k < split; k++ {
			parts[k].Reset(cfg, k, split)
			for i, s := range streams {
				got[i] += parts[k].Misses(s.base, s.n, s.stride)
			}
		}
		for i, s := range streams {
			if got[i] != want[i] {
				t.Fatalf("%+v split %d: stream %d %+v misses %d over the parts, %d on the whole cache",
					cfg, split, i, s, got[i], want[i])
			}
		}
	}
}

// randomStreams draws n streams of every class randomStream knows, and
// now and then repeats an earlier one, so the parts see warm lines too.
func randomStreams(rng *rand.Rand, cfg Config, n int) []stream {
	out := make([]stream, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(5) == 0 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		base, m, stride := randomStream(rng, cfg)
		out = append(out, stream{base, m, stride})
	}
	return out
}

// TestPartsSumToWhole: seeded random stream lists over the differential
// geometries (the testbed's included), split every way the set count
// allows.
func TestPartsSumToWhole(t *testing.T) {
	for _, cfg := range diffGeometries {
		if cfg.SizeBytes > 64<<10 {
			cfg.SizeBytes = 64 << 10 // keep the testbed's 8 ways and 64 B lines, fewer splits
		}
		t.Run(fmt.Sprintf("%dB_line%d_assoc%d", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkPartsSumToWhole(t, cfg, randomStreams(rand.New(rand.NewSource(seed)), cfg, 60))
			}
		})
	}
}

// TestPartRejectsBadSplits: a part count that is not a power of two, or
// exceeds the set count, and a part index outside the split panic, as New
// does on an invalid geometry.
func TestPartRejectsBadSplits(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2} // 32 sets
	for _, c := range []struct{ k, parts int }{{0, 3}, {0, 64}, {0, 0}, {2, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("part %d of %d did not panic", c.k, c.parts)
				}
			}()
			new(Part).Reset(cfg, c.k, c.parts)
		}()
	}
}

// FuzzPartitionedWalk lets the fuzzer choose the geometry, a seeded list of
// random streams (zero, negative, sub-line, line and over-line strides,
// wrapping ones included) and one free-form stream that is walked first,
// last and in the middle.
func FuzzPartitionedWalk(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(4), int64(1), uint64(0), uint16(300), int32(8))
	f.Add(uint8(6), uint8(3), uint8(4), int64(2), uint64(1<<20), uint16(400), int32(296))
	f.Add(uint8(5), uint8(2), uint8(2), int64(3), uint64(4096), uint16(50), int32(-72))
	f.Add(uint8(3), uint8(1), uint8(0), int64(4), ^uint64(0)-40, uint16(9), int32(16))
	f.Add(uint8(6), uint8(4), uint8(1), int64(5), uint64(77), uint16(1000), int32(0))
	f.Fuzz(func(t *testing.T, sets, line, assoc uint8, seed int64, base uint64, n uint16, stride int32) {
		cfg := partGeometry(sets, line, assoc)
		streams := randomStreams(rand.New(rand.NewSource(seed)), cfg, 24)
		free := stream{base, int(n), int(stride)}
		streams = append([]stream{free}, streams...)
		streams = append(streams[:12], append([]stream{free}, streams[12:]...)...)
		checkPartsSumToWhole(t, cfg, append(streams, free))
	})
}
