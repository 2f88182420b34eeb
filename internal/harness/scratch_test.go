package harness

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// benchSweep is one sweep of the benchmark's sweep_cold pass: the sizes of
// bench/sweep.go, one repetition, one rank.
func benchSweep(k Kernel) SweepConfig {
	cfg := DefaultSweep(k)
	cfg.Sizes = LogSizes(1_000, 60_000, 6)
	cfg.Reps = 1
	cfg.World.Procs = 1
	return cfg
}

// TestPoisonedScratchSweepAndCaseStudy is the harness end of euler's
// TestPoisonedScratchMatchesFreshStorage: with every scratch arena refilled
// with signalling NaNs on each Reset, and every released mpi message
// overwritten with them, a sweep's rows and the case study's FUNCTION
// SUMMARY under every rank scheduler are what they are without — no
// temporary block or edge field is read before it is written, and no
// message after its last use, on any rank, whichever goroutine runs it. Not
// parallel: the hooks are process-wide, and poisoning other tests' storage,
// harmless as it must be, would make their failures harder to read.
func TestPoisonedScratchSweepAndCaseStudy(t *testing.T) {
	sweep := benchSweep(KernelGodunov)
	sweep.Sizes = LogSizes(1_000, 12_000, 3)
	cases := map[mpi.SchedulerMode]CaseStudyConfig{}
	for _, mode := range []mpi.SchedulerMode{mpi.Serial, mpi.ConservativeParallel, mpi.OptimisticParallel} {
		cfg := fastCaseStudy()
		cfg.World.Sched = mode
		cases[mode] = cfg
	}
	run := func() (rows any, profiles map[mpi.SchedulerMode]string) {
		res, err := RunSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		profiles = map[mpi.SchedulerMode]string{}
		for mode, cfg := range cases {
			cs, err := RunCaseStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := cs.WriteProfile(&sb); err != nil {
				t.Fatal(err)
			}
			profiles[mode] = sb.String()
		}
		return res.Rows(), profiles
	}
	rows, profiles := run()
	undoScratch, undoMessages := euler.PoisonScratchOnReset(), mpi.PoisonReleasedMessages()
	poisonedRows, poisonedProfiles := run()
	undoScratch()
	undoMessages()
	if !reflect.DeepEqual(rows, poisonedRows) {
		t.Error("sweep rows differ over poisoned scratch storage")
	}
	for mode, want := range profiles {
		if got := poisonedProfiles[mode]; got != want {
			t.Errorf("%v: FUNCTION SUMMARY differs over poisoned scratch storage and messages:\n%s\nwant:\n%s", mode, got, want)
		}
		if want != profiles[mpi.Serial] {
			t.Errorf("%v: FUNCTION SUMMARY differs from serial", mode)
		}
	}
}

// allocatedBy returns the bytes f allocates: the first of up to three runs
// to stay within budget, else the cheapest, so that a GC cycle or a late
// goroutine start in one run does not fail the budget.
func allocatedBy(t *testing.T, budget uint64, f func() error) uint64 {
	t.Helper()
	best := ^uint64(0)
	for i := 0; i < 3 && best > budget; i++ {
		best = min(best, allocatedOnce(t, f))
	}
	return best
}

// allocatedOnce returns the bytes one run of f allocates.
func allocatedOnce(t *testing.T, f func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepAllocationBudget pins what one sweep of the benchmark's shape may
// allocate. Live, on the differential tests' oracle (runSweep with no
// trace): the planes of its largest shape take 16.2 MB, once; allocating
// a block and six edge fields afresh per shape took 117.6 MB. A live sweep
// after the first takes that arena back and allocates 0.09 MB, with a
// garbage collection between the two: each sweep cleared an arena of its
// own before they were kept (16.3 MB), and a sync.Pool dropped the kept
// one at every collection. The production sweep (RunSweep: record, walk,
// price) first grows a charge trace and a walk to the sweep's size, read
// once, since a second attempt would find them kept; after that it
// allocates no more than a warm live sweep. Each budget is about a
// quarter above its reading. Walking and pricing a recording on another
// machine after a first walk (0.008 MB) is held to the warm budget, and
// the first walk to its own. Not parallel: TotalAlloc counts every
// goroutine's allocations.
func TestSweepAllocationBudget(t *testing.T) {
	const budget, warmBudget = 20 << 20, 120 << 10
	live := func() error {
		_, err := runSweep(benchSweep(KernelEFM), nil)
		return err
	}
	got := allocatedBy(t, budget, live)
	t.Logf("one live sweep allocates %.2f MB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one live sweep allocates %d bytes, budget %d", got, budget)
	}

	runtime.GC()
	warm := allocatedBy(t, warmBudget, live)
	t.Logf("a live sweep after the first allocates %.3f MB", float64(warm)/(1<<20))
	if warm > warmBudget {
		t.Errorf("a live sweep after the first allocates %d bytes, budget %d", warm, warmBudget)
	}

	priced := func() error {
		_, err := RunSweep(benchSweep(KernelEFM))
		return err
	}
	// The trace and the first walk's miss counts take 22.1 MB, and each
	// part of the split walk after the first its own counts and directory:
	// 22.1, 22.8 and 24.2 MB at GOMAXPROCS 1, 2 and 4.
	pricedBudget := 27<<20 + uint64(runtime.GOMAXPROCS(0))*900<<10
	first := allocatedOnce(t, priced)
	t.Logf("a first priced sweep allocates %.2f MB", float64(first)/(1<<20))
	if first > pricedBudget {
		t.Errorf("a first priced sweep allocates %d bytes, budget %d", first, pricedBudget)
	}
	runtime.GC()
	warm = allocatedBy(t, warmBudget, priced)
	t.Logf("a priced sweep after the first allocates %.3f MB", float64(warm)/(1<<20))
	if warm > warmBudget {
		t.Errorf("a priced sweep after the first allocates %d bytes, budget %d", warm, warmBudget)
	}

	// Pricing a recording on another machine walks its streams through that
	// machine's cache and applies its charges. The first walk makes its
	// miss counts, 4 bytes a stream (0.67 MB for this EFM recording), and
	// so does each part of the split after the first, with the parts'
	// directories, 8 bytes a line of the cache between them, unless an
	// earlier walk in the process left its parts: at most 900 kB a core. A
	// walk into a Walk that has walked before, and the pricing, build one
	// Proc and the points, and nothing per charge or per stream: the warm
	// budget. The machine is the 128 kB one of the benchmark's pair.
	trace := new(platform.Trace)
	recorded, err := runSweep(benchSweep(KernelEFM), trace)
	if err != nil {
		t.Fatal(err)
	}
	at := benchSweep(KernelEFM)
	at.World.Cache.SizeBytes = 128 << 10
	coldBudget := uint64(runtime.GOMAXPROCS(0)) * 900 << 10
	cold := allocatedBy(t, coldBudget, func() error { return trace.Walk(at.World.Cache, new(platform.Walk)) })
	t.Logf("a first walk at 128 kB allocates %.3f MB", float64(cold)/(1<<20))
	if cold > coldBudget {
		t.Errorf("a first walk allocates %d bytes, budget %d", cold, coldBudget)
	}
	w := new(platform.Walk)
	if err := trace.Walk(at.World.Cache, w); err != nil {
		t.Fatal(err)
	}
	repriced := allocatedBy(t, warmBudget, func() error {
		if err := trace.Walk(at.World.Cache, w); err != nil {
			return err
		}
		_, err := priceSweep(at, trace, w, recorded.Points)
		return err
	})
	t.Logf("walking and pricing a recording at 128 kB after a first walk allocates %.3f MB", float64(repriced)/(1<<20))
	if repriced > warmBudget {
		t.Errorf("walking and pricing a recording allocates %d bytes, budget %d", repriced, warmBudget)
	}
}

// TestCaseStudyAllocationBudget is the same for the case study, which
// allocated about 327 MB when RK2 cloned every patch and built two edge
// fields per patch and stage, and InviscidFlux four more, 45.0 MB when
// every scratch header, exchange plan, halo buffer and local patch list was
// allocated per use, 27.5 MB when every monitored call built its record's
// name, parameter list, snapshots and row afresh, and 22.8 MB when every
// message, record column step and flux call allocated, and 14.7 MB when
// every record kept its wall time twice and its compute time as a column
// (14.1 MB since). The budget is about a quarter above that.
func TestCaseStudyAllocationBudget(t *testing.T) {
	const budget = 18 << 20
	got := allocatedBy(t, budget, func() error {
		_, err := RunCaseStudy(DefaultCaseStudy())
		return err
	})
	t.Logf("one case study allocates %.2f MB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one case study allocates %d bytes, budget %d", got, budget)
	}
}
