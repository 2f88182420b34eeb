package platform

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

func newTestProc() *Proc {
	return NewProc(0, XeonModel(), cache.XeonL2(), 42)
}

func TestClockStartsAtZero(t *testing.T) {
	p := newTestProc()
	if p.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", p.Now())
	}
}

func TestAdvance(t *testing.T) {
	p := newTestProc()
	p.Advance(1.5)
	p.Advance(2.5)
	if got := p.Now(); got != 4.0 {
		t.Errorf("Now() = %g, want 4", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	newTestProc().Advance(-1)
}

func TestSyncTo(t *testing.T) {
	p := newTestProc()
	p.Advance(10)
	if got := p.SyncTo(5); got != 10 {
		t.Errorf("SyncTo(past) = %g, want clock unchanged at 10", got)
	}
	if got := p.SyncTo(25); got != 25 {
		t.Errorf("SyncTo(future) = %g, want 25", got)
	}
}

func TestCyclesToMicros(t *testing.T) {
	m := XeonModel() // 2.8 GHz => 2800 cycles per microsecond
	if got := m.CyclesToMicros(2800); got != 1.0 {
		t.Errorf("2800 cycles = %g us, want 1", got)
	}
}

func TestAdvanceCycles(t *testing.T) {
	p := newTestProc()
	p.AdvanceCycles(5600)
	if got := p.Now(); got != 2.0 {
		t.Errorf("Now() after 5600 cycles = %g us, want 2", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	p := newTestProc()
	a := p.Alloc(100)
	b := p.Alloc(1)
	c := p.Alloc(0)
	for _, addr := range []uint64{a, b, c} {
		if addr%lineAlign != 0 {
			t.Errorf("allocation %#x not %d-byte aligned", addr, lineAlign)
		}
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x(+100) b=%#x", a, b)
	}
	if a < baseAddr {
		t.Errorf("first allocation %#x below heap base %#x", a, uint64(baseAddr))
	}
}

func TestAllocNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Alloc did not panic")
		}
	}()
	newTestProc().Alloc(-1)
}

func TestChargeFlops(t *testing.T) {
	p := newTestProc()
	p.ChargeFlops(2800) // 2 cycles/flop => 5600 cycles => 2 us
	if got := p.Now(); got != 2.0 {
		t.Errorf("Now() = %g, want 2", got)
	}
	if got := p.Counters().FPOps; got != 2800 {
		t.Errorf("FPOps = %d, want 2800", got)
	}
	p.ChargeFlops(0)
	p.ChargeFlops(-3)
	if got := p.Counters().FPOps; got != 2800 {
		t.Errorf("FPOps after no-op charges = %d, want 2800", got)
	}
}

func TestChargeStreamAdvancesClockAndCounters(t *testing.T) {
	p := newTestProc()
	base := p.Alloc(8 * 1024)
	before := p.Now()
	hits, misses := p.ChargeStream(base, 1024, 8)
	if hits+misses != 1024 {
		t.Fatalf("hits+misses = %d, want 1024", hits+misses)
	}
	if p.Now() <= before {
		t.Error("clock did not advance for stream")
	}
	ctr := p.Counters()
	if ctr.L2DCA != 1024 {
		t.Errorf("L2DCA = %d, want 1024", ctr.L2DCA)
	}
	if ctr.L2DCM != misses {
		t.Errorf("L2DCM = %d, want %d", ctr.L2DCM, misses)
	}
}

func TestStridedStreamCostsMoreThanSequential(t *testing.T) {
	// Same element count, cold cache both times, large array: strided must
	// be substantially more expensive (the Fig. 4/5 mechanism).
	n := 64 * 1024 // 512 kB of doubles: fills the cache
	seq := newTestProc()
	base := seq.Alloc(n * 8)
	seq.ChargeStream(base, n, 8)
	seqTime := seq.Now()

	str := newTestProc()
	base2 := str.Alloc(n * 64)
	str.ChargeStream(base2, n, 512) // 64-double stride: new line every access
	strTime := str.Now()

	if strTime < 2*seqTime {
		t.Errorf("strided time %g not >> sequential time %g", strTime, seqTime)
	}
}

func TestChargeCall(t *testing.T) {
	p := newTestProc()
	p.ChargeCall()
	want := XeonModel().CyclesToMicros(XeonModel().CallCycles)
	if got := p.Now(); got != want {
		t.Errorf("call overhead = %g, want %g", got, want)
	}
}

func TestRankSeparatesRNGStreams(t *testing.T) {
	p0 := NewProc(0, XeonModel(), cache.XeonL2(), 7)
	p1 := NewProc(1, XeonModel(), cache.XeonL2(), 7)
	same := true
	for i := 0; i < 8; i++ {
		if p0.RNG().Float64() != p1.RNG().Float64() {
			same = false
		}
	}
	if same {
		t.Error("ranks 0 and 1 produced identical random streams")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Time, Counters) {
		p := NewProc(2, XeonModel(), cache.XeonL2(), 99)
		b := p.Alloc(1 << 16)
		p.ChargeStream(b, 4096, 8)
		p.ChargeFlops(1000)
		p.ChargeStream(b, 4096, 128)
		return p.Now(), p.Counters()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Errorf("non-deterministic platform: (%g,%+v) vs (%g,%+v)", t1, c1, t2, c2)
	}
}

// Property: the clock is monotone under any sequence of charges.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		p := newTestProc()
		base := p.Alloc(1 << 20)
		prev := p.Now()
		for _, op := range ops {
			switch op % 4 {
			case 0:
				p.ChargeFlops(int(op))
			case 1:
				p.ChargeStream(base, int(op), 8)
			case 2:
				p.ChargeStream(base, int(op), 256)
			case 3:
				p.ChargeCall()
			}
			if p.Now() < prev {
				return false
			}
			prev = p.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStreamCyclesPrefetchDiscount(t *testing.T) {
	m := XeonModel()
	seq := m.StreamCycles(0, 100, true)
	str := m.StreamCycles(0, 100, false)
	if seq >= str {
		t.Errorf("sequential miss cycles %g should be < strided %g", seq, str)
	}
}

// priced prices trace on a fresh Proc of cpu and cfg, from a walk split
// into parts parts, and returns the Proc and the clock at each mark.
func priced(t *testing.T, trace *Trace, cpu CPUModel, cfg cache.Config, parts int) (*Proc, []Time) {
	t.Helper()
	var w Walk
	trace.walk(cfg, &w, parts)
	p := NewProc(0, cpu, cfg, 1)
	var marks []Time
	if err := trace.Price(p, &w, func() { marks = append(marks, p.Now()) }); err != nil {
		t.Fatal(err)
	}
	return p, marks
}

// TestTracePricesEveryCharge records one call of every charging method a
// trace can price, each once however it is built from the others, and
// prices the trace on a fresh Proc of the same machine and of another,
// from walks split every way the cache allows: each ends with the exact
// clock and counters of a live run of the same calls there, and marks fire
// where they were placed. The recording Proc walks no cache.
func TestTracePricesEveryCharge(t *testing.T) {
	var trace Trace
	live := newTestProc()
	base := live.Alloc(1 << 16)
	charges := func(p *Proc) {
		p.ChargeStream(base, 512, 8)
		p.ChargeFlops(1000)
		p.Mark()
		p.ChargeStreamHinted(base, 64, 1024, true)
		p.ChargeStream(base+4096, 200, 296)
		p.ChargeCall()
		p.AdvanceCycles(12.5)
		p.ChargeStream(base+100, 40, -8)
		p.Mark()
		p.ChargeStream(base, 0, 8) // moves nothing, records nothing
		p.ChargeFlops(0)
	}
	live.RecordTo(&trace)
	charges(live)
	live.RecordTo(nil)
	live.ChargeCall() // after the recording
	if got, want := trace.Len(), 9; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	if !reflect.DeepEqual(live.Cache().Checkpoint(), cache.New(cache.XeonL2()).Checkpoint()) {
		t.Errorf("the recording walked its cache: %+v", live.Cache().Stats())
	}

	fast := XeonModel()
	fast.ClockGHz *= 2
	for _, m := range []struct {
		cpu CPUModel
		cfg cache.Config
	}{{XeonModel(), cache.XeonL2()}, {fast, cache.Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2}}} {
		plain := NewProc(0, m.cpu, m.cfg, 1)
		charges(plain)
		for parts := 1; parts <= m.cfg.Sets(); parts *= 2 {
			p, marks := priced(t, &trace, m.cpu, m.cfg, parts)
			if p.Now() != plain.Now() || p.Counters() != plain.Counters() {
				t.Errorf("%+v, %d parts: priced at %g %+v, live at %g %+v",
					m.cfg, parts, p.Now(), p.Counters(), plain.Now(), plain.Counters())
			}
			if len(marks) != 2 || marks[0] <= 0 || marks[1] <= marks[0] {
				t.Errorf("%+v, %d parts: marks at %v", m.cfg, parts, marks)
			}
		}
	}

	// A new recording starts from an empty trace.
	live.RecordTo(&trace)
	live.Mark()
	live.RecordTo(nil)
	if trace.Len() != 1 {
		t.Errorf("a new recording kept %d events", trace.Len()-1)
	}
}

// TestPriceRefusesClockCharges: Advance and SyncTo take times read off a
// clock that a recording leaves without its streams' prices, so a
// recording Proc refuses them with a panic that names the call, and
// records nothing for them; a Proc that is not recording takes them. Nor
// does a trace price from a walk of other streams or of another cache.
func TestPriceRefusesClockCharges(t *testing.T) {
	for name, charge := range map[string]func(*Proc){
		"Advance": func(p *Proc) { p.Advance(0.25) },
		"SyncTo":  func(p *Proc) { p.SyncTo(100) },
	} {
		var trace Trace
		p := newTestProc()
		p.RecordTo(&trace)
		p.ChargeStream(1<<20, 64, 8)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, name) {
					t.Errorf("%s on a recording Proc: panic %q, want one naming the call", name, msg)
				}
			}()
			charge(p)
		}()
		p.RecordTo(nil)
		if trace.Len() != 1 || p.Now() != 0 {
			t.Errorf("a refused %s left %d events and the clock at %g, want 1 and 0", name, trace.Len(), p.Now())
		}
		charge(p)
		if p.Now() == 0 {
			t.Errorf("%s after the recording did not move the clock", name)
		}
	}

	var one, two Trace
	p := newTestProc()
	p.RecordTo(&one)
	p.ChargeStream(1<<20, 64, 8)
	p.RecordTo(&two)
	p.ChargeStream(1<<20, 64, 8)
	p.ChargeStream(1<<20, 64, 8)
	p.RecordTo(nil)
	var w Walk
	if err := one.Walk(cache.XeonL2(), &w); err != nil {
		t.Fatal(err)
	}
	if err := two.Price(newTestProc(), &w, func() {}); err == nil {
		t.Error("a walk of one stream priced a trace of two")
	}
	other := NewProc(0, XeonModel(), cache.Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2}, 1)
	if err := one.Price(other, &w, func() {}); err == nil {
		t.Error("a walk of the testbed cache priced a machine with another")
	}
	if err := one.Walk(cache.Config{SizeBytes: 100 << 10, LineBytes: 64, Assoc: 8}, &w); err == nil {
		t.Error("a walk of a cache with 200 sets succeeded")
	}
}

// TestSameStreams: traces with the same streams are the same to a walk,
// whatever else they hold and whatever their latency hints; a trace that differs in one stream's base,
// length or stride, or has one stream more, is not, and has another
// digest.
func TestSameStreams(t *testing.T) {
	rec := func(f func(p *Proc)) *Trace {
		var trace Trace
		p := newTestProc()
		p.RecordTo(&trace)
		f(p)
		p.RecordTo(nil)
		return &trace
	}
	streams := func(p *Proc, base uint64, n, stride int) {
		p.ChargeStream(1<<20, 100, 8)
		p.ChargeStreamHinted(base, n, stride, false)
		p.ChargeStream(1<<21, 30, 512)
	}
	a := rec(func(p *Proc) { streams(p, 1<<22, 64, 296) })
	b := rec(func(p *Proc) { p.ChargeFlops(10); streams(p, 1<<22, 64, 296); p.Mark(); p.ChargeCall() })
	hinted := rec(func(p *Proc) {
		p.ChargeStreamHinted(1<<20, 100, 8, true)
		p.ChargeStreamHinted(1<<22, 64, 296, true)
		p.ChargeStreamHinted(1<<21, 30, 512, true)
	})
	for _, same := range []*Trace{b, hinted} {
		if !a.SameStreams(same) || !same.SameStreams(a) || a.StreamDigest() != same.StreamDigest() {
			t.Error("traces with the same streams, among other charges or with other latency hints, differ")
		}
	}
	for name, other := range map[string]*Trace{
		"base":   rec(func(p *Proc) { streams(p, 1<<22+64, 64, 296) }),
		"length": rec(func(p *Proc) { streams(p, 1<<22, 65, 296) }),
		"stride": rec(func(p *Proc) { streams(p, 1<<22, 64, 304) }),
		"extra":  rec(func(p *Proc) { streams(p, 1<<22, 64, 296); p.ChargeStream(1<<20, 1, 8) }),
		"empty":  rec(func(p *Proc) {}),
	} {
		if a.SameStreams(other) || other.SameStreams(a) {
			t.Errorf("a trace with another %s has the same streams", name)
		}
		if a.StreamDigest() == other.StreamDigest() {
			t.Errorf("a trace with another %s has the same digest", name)
		}
	}
}
