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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestSweepAllocationBudget pins what one sweep of the benchmark's shape may
// allocate. The planes of its largest shape take 16.2 MB, once; allocating
// a block and six edge fields afresh per shape took 117.6 MB. A sweep after
// the first takes that arena back and allocates 0.09 MB, with a garbage
// collection between the two: each sweep cleared an arena of its own before
// they were kept (16.3 MB), and a sync.Pool dropped the kept one at every
// collection. Each budget is about a quarter above its reading. Pricing
// the recorded sweep on another machine (0.02 MB) is held to the warm
// budget. Not parallel: TotalAlloc counts every goroutine's allocations.
func TestSweepAllocationBudget(t *testing.T) {
	const budget, warmBudget = 20 << 20, 120 << 10
	sweep := func() error {
		_, err := RunSweep(benchSweep(KernelEFM))
		return err
	}
	got := allocatedBy(t, budget, sweep)
	t.Logf("one sweep allocates %.2f MB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one sweep allocates %d bytes, budget %d", got, budget)
	}

	runtime.GC()
	warm := allocatedBy(t, warmBudget, sweep)
	t.Logf("a sweep after the first allocates %.3f MB", float64(warm)/(1<<20))
	if warm > warmBudget {
		t.Errorf("a sweep after the first allocates %d bytes, budget %d", warm, warmBudget)
	}

	// Pricing a recorded sweep on another machine builds one Proc and the
	// points, and nothing per charge. A cache directory is 8 bytes a line,
	// so the machine is the 128 kB one (16 kB) of the benchmark's pair.
	trace := new(platform.Trace)
	recorded, err := runSweep(benchSweep(KernelEFM), trace)
	if err != nil {
		t.Fatal(err)
	}
	at := benchSweep(KernelEFM)
	at.World.Cache.SizeBytes = 128 << 10
	priced := allocatedBy(t, warmBudget, func() error {
		_, err := repriceSweep(at, trace, recorded.Points)
		return err
	})
	t.Logf("pricing a recorded sweep at 128 kB allocates %.3f MB", float64(priced)/(1<<20))
	if priced > warmBudget {
		t.Errorf("pricing a recorded sweep allocates %d bytes, budget %d", priced, warmBudget)
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
