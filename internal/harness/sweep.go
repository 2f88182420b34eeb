package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/cca"
	"repro/internal/components"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/results"
)

// Kernel names the three measured components of Section 5.
type Kernel string

// The measured kernels and their paper proxy labels.
const (
	KernelStates  Kernel = "states"
	KernelGodunov Kernel = "godunov"
	KernelEFM     Kernel = "efm"
)

// sweepWiring is how a sweep reaches a kernel: the kernel's component
// class, its proxy's class and paper label, and the port both provide.
type sweepWiring struct{ class, proxyClass, proxy, port string }

// wiring returns the kernel's sweep wiring.
func (k Kernel) wiring() sweepWiring {
	switch k {
	case KernelStates:
		return sweepWiring{"States", "StatesProxy", "sc_proxy", "states"}
	case KernelGodunov:
		return sweepWiring{"GodunovFlux", "FluxProxy", "g_proxy", "flux"}
	default:
		return sweepWiring{"EFMFlux", "FluxProxy", "efm_proxy", "flux"}
	}
}

// RecordName returns the monitored method name the sweep produces.
func (k Kernel) RecordName() string { return k.wiring().proxy + "::compute()" }

// SweepConfig drives the Fig. 4–8 measurement campaign: the kernel is
// invoked through its proxy on arrays of increasing size, alternating the
// sequential (X-derivative) and strided (Y-derivative) modes the way the
// application does.
type SweepConfig struct {
	Kernel Kernel
	// Sizes lists the array sizes Q (cells per patch).
	Sizes []int
	// Reps is the number of invocations per size per mode.
	Reps int
	// World is the simulated machine and its rank count. Every rank runs
	// the same program on the same machine and records bit-identical
	// points (TestSweepRanksMatchRankZero), so a sweep simulates rank 0
	// and copies it to every rank: the Fig. 4 spread comes from patch
	// aspect and cache state.
	World mpi.WorldConfig
}

// DefaultSweep returns the calibrated sweep for a kernel: log-spaced sizes
// up to the paper's ~150k-element arrays.
func DefaultSweep(k Kernel) SweepConfig {
	return SweepConfig{
		Kernel: k,
		Sizes:  LogSizes(1_000, 150_000, 12),
		Reps:   4,
		World:  mpi.DefaultConfig(),
	}
}

// LogSizes returns n log-spaced integer sizes in [lo, hi].
func LogSizes(lo, hi, n int) []int {
	if n < 2 {
		return []int{lo}
	}
	out := make([]int, 0, n)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	v := float64(lo)
	for i := 0; i < n; i++ {
		out = append(out, int(v+0.5))
		v *= ratio
	}
	return out
}

// SweepPoint is one proxy-recorded invocation.
type SweepPoint struct {
	Rank   int
	Q      int
	Mode   euler.Dir
	WallUS float64
	// Misses is the invocation's PAPI_L2_DCM delta — the cache information
	// the paper's Section 6 wants folded into the model coefficients.
	Misses float64
}

// SweepResult holds the campaign's samples.
type SweepResult struct {
	Config SweepConfig
	Points []SweepPoint
}

// sweepAspects are the patch tallness factors the sweep cycles through:
// SAMR patches "can be of any size or aspect ratio" (paper §5), and the
// aspect decides whether a strided sweep's working set fits the cache —
// the source of the growing Fig. 4/5 scatter at large Q.
var sweepAspects = []float64{0.7, 1.0, 1.4, 2.0}

// blockShape picks a patch shape with the requested cell count and
// tallness a (ny ~ a*sqrt(Q)).
func blockShape(q int, a float64) (nx, ny int) {
	ny = int(a * math.Sqrt(float64(q)))
	if ny < 4 {
		ny = 4
	}
	nx = q / ny
	if nx < 4 {
		nx = 4
	}
	return nx, ny
}

// sweepScratches keeps the recordings' scratch arenas across sweeps. An
// arena grows to a sweep's largest shape (13-16 MB at the benchmark's
// sizes), and the next recording in the process takes it back instead of
// clearing a new one. It is a free list, not a sync.Pool, which a garbage
// collection empties: a sweep after one cleared a new arena. The list
// holds at most as many arenas as recordings have run at once.
var sweepScratches freeList[euler.Scratch]

// freeList is a mutex-guarded free list of reusable buffers.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get takes a buffer off the list, or makes an empty one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	s := l.free[n-1]
	l.free = l.free[:n-1]
	return s
}

// put returns a buffer to the list.
func (l *freeList[T]) put(s *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, s)
}

// RunSweep measures the kernel through the full PMM stack (component,
// proxy, Mastermind, TAU): it runs cfg's SweepJob in a campaign.Run of its
// own, on one worker, as every sweep is measured (measureSweep). Patch
// contents vary per repetition — a randomized shock/interface crossing —
// but no kernel's charge reads field data, so the rows do not depend on
// the seed (TestSweepRowsIgnoreSeed).
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	res, err := campaign.Run(context.Background(), campaign.Config{Workers: 1}, []campaign.Job{SweepJob("sweep", cfg)})
	if err != nil {
		return nil, err
	}
	return res[0].Value.(*SweepResult), nil
}

// runSweep runs rank 0 of cfg's sweep on a one-rank serial world of cfg's
// machine: live, the differential tests' oracle, when trace is nil, and
// else recording its charges into trace and walking no cache, so that its
// points keep only their rank, size and mode for priceSweep to price.
func runSweep(cfg SweepConfig, trace *platform.Trace) (*SweepResult, error) {
	if len(cfg.Sizes) == 0 || cfg.Reps <= 0 {
		return nil, fmt.Errorf("harness: empty sweep")
	}
	w := serialWorld(cfg.World)
	w.Procs = 1
	var pts []SweepPoint
	err := cca.RunSCMD(mpi.NewWorld(w), func(f *cca.Framework, r *mpi.Rank) (err error) {
		pts, err = sweepRank(f, r.Proc, cfg, trace)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Config: cfg, Points: pts}, nil
}

// sweepRank runs cfg's sweep program on one rank of a framework and
// returns the rank's points, recording its charges into trace when it is
// not nil, with a mark before and after every monitored call.
func sweepRank(f *cca.Framework, proc *platform.Proc, cfg SweepConfig, trace *platform.Trace) ([]SweepPoint, error) {
	app := &components.App{Framework: f}
	components.RegisterClasses(f, components.DefaultAppConfig(), app)
	if err := f.RunScript(sweepScript(cfg.Kernel)); err != nil {
		return nil, err
	}
	statesPort, fluxPort, err := sweepPorts(f, cfg.Kernel)
	if err != nil {
		return nil, err
	}
	if trace != nil {
		proc.RecordTo(trace)
		defer proc.RecordTo(nil)
	}
	rng := proc.RNG()
	problem := euler.DefaultShockInterface()
	dirs := [2]euler.Dir{euler.X, euler.Y}
	// One block and six edge fields per shape, on a kept scratch arena:
	// sized for the largest shape, recycled per shape.
	shapeFloats := func(nx, ny int) int {
		return euler.BlockFloats(nx, ny, 2) + 3*euler.EdgeFieldFloats(nx, ny)
	}
	room := 0
	for _, q := range cfg.Sizes {
		for _, aspect := range sweepAspects {
			if n := shapeFloats(blockShape(q, aspect)); n > room {
				room = n
			}
		}
	}
	scratch := sweepScratches.get()
	defer sweepScratches.put(scratch)
	for _, q := range cfg.Sizes {
		for _, aspect := range sweepAspects {
			nx, ny := blockShape(q, aspect)
			// Buffers are built once per shape and reused across
			// repetitions, as the application reuses its patch arrays:
			// only the first invocation sees a cold cache.
			scratch.Reset(room)
			b := scratch.Block(proc, nx, ny, 2)
			var fields [2][3]*euler.EdgeField // by dir: qL, qR, flux
			for _, dir := range dirs {
				for i := range fields[dir] {
					fields[dir][i] = scratch.EdgeField(proc, nx, ny, dir)
				}
			}
			for rep := 0; rep < cfg.Reps; rep++ {
				// Fresh field contents per repetition: shock and
				// interface at random positions inside the patch.
				p := problem
				p.ShockX = p.Lx * (0.15 + 0.5*rng.Float64())
				p.InterfaceX = p.ShockX + p.Lx*(0.1+0.3*rng.Float64())
				p.InitBlock(b, 0, 0, p.Lx/float64(nx), p.Ly/float64(ny))
				b.FillBoundary(true, true, true, true)
				for _, dir := range dirs {
					qL, qR, fl := fields[dir][0], fields[dir][1], fields[dir][2]
					if cfg.Kernel == KernelStates {
						proc.Mark()
						statesPort.Compute(b, dir, qL, qR)
						proc.Mark()
						continue
					}
					// Flux kernels consume reconstructed states: build
					// them unmonitored, then invoke the monitored flux
					// proxy.
					euler.States(proc, b, dir, qL, qR)
					proc.Mark()
					fluxPort.Compute(qL, qR, fl)
					proc.Mark()
				}
			}
		}
	}
	// Harvest the proxy record into sweep points.
	rec := app.Core().Record(cfg.Kernel.RecordName())
	if rec == nil {
		return nil, fmt.Errorf("harness: sweep produced no %s record", cfg.Kernel.RecordName())
	}
	q, mode := rec.Param("Q"), rec.Param("mode")
	var misses []float64
	if i := slices.Index(rec.MetricNames, "PAPI_L2_DCM"); i >= 0 {
		misses = rec.Deltas[i]
	}
	wall := rec.WallUS()
	pts := make([]SweepPoint, rec.Len())
	for i := range pts {
		pts[i] = SweepPoint{
			Rank: proc.Rank(), Q: int(q[i]), Mode: euler.Dir(int(mode[i])), WallUS: wall[i],
		}
		if misses != nil {
			pts[i].Misses = misses[i]
		}
	}
	return pts, nil
}

// sweepScript assembles just the kernel, its proxy and the PMM components.
func sweepScript(k Kernel) string {
	w := k.wiring()
	return fmt.Sprintf(`
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate %[1]s %[3]s0
instantiate %[2]s %[4]s
connect mastermind0 measurement tau0 measurement
connect %[4]s target %[3]s0 %[3]s
connect %[4]s monitor mastermind0 monitor
`, w.class, w.proxyClass, w.port, w.proxy)
}

// sweepPorts resolves the proxy's provides port (the other result is nil).
func sweepPorts(f *cca.Framework, k Kernel) (components.StatesPort, components.FluxPort, error) {
	w := k.wiring()
	p, err := f.LookupProvides(w.proxy, w.port)
	if err != nil {
		return nil, nil, err
	}
	sp, _ := p.(components.StatesPort)
	fp, _ := p.(components.FluxPort)
	return sp, fp, nil
}

// AllSeries returns every sample regardless of mode (the paper's
// mode-averaged analysis input).
func (s *SweepResult) AllSeries() (q, wall []float64) {
	for _, p := range s.Points {
		q = append(q, float64(p.Q))
		wall = append(wall, p.WallUS)
	}
	return q, wall
}

// RatioPoint is one Fig. 5 sample: strided/sequential mean time at one
// size on one rank.
type RatioPoint struct {
	Rank  int
	Q     int
	Ratio float64
}

// StridedRatios computes the Fig. 5 series.
func (s *SweepResult) StridedRatios() []RatioPoint {
	type key struct{ rank, q int }
	sums := map[key][2]float64{} // [seqSum, strSum]
	counts := map[key][2]int{}
	for _, p := range s.Points {
		k := key{p.Rank, p.Q}
		sv, cv := sums[k], counts[k]
		if p.Mode == euler.X {
			sv[0] += p.WallUS
			cv[0]++
		} else {
			sv[1] += p.WallUS
			cv[1]++
		}
		sums[k], counts[k] = sv, cv
	}
	var out []RatioPoint
	for k, sv := range sums {
		cv := counts[k]
		if cv[0] == 0 || cv[1] == 0 {
			continue
		}
		out = append(out, RatioPoint{
			Rank: k.rank, Q: k.q,
			Ratio: (sv[1] / float64(cv[1])) / (sv[0] / float64(cv[0])),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q != out[j].Q {
			return out[i].Q < out[j].Q
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Rows returns the sweep's telemetry rows for streaming into a
// results.Sink: one row per recorded invocation, carrying the Fig. 4
// scatter columns plus the invocation's PAPI_L2_DCM delta.
func (s *SweepResult) Rows() []results.Row {
	rows := make([]results.Row, len(s.Points))
	for i, p := range s.Points {
		rows[i] = results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("mode", p.Mode), results.F("wall_us", p.WallUS),
			results.F("l2_dcm", p.Misses),
		}
	}
	return rows
}

// WriteScatterCSV writes the Fig. 4 scatter.
func (s *SweepResult) WriteScatterCSV(w io.Writer) error {
	enc := results.NewCSVEncoder(w)
	if err := enc.Header("rank", "q", "mode", "wall_us"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if err := enc.Encode(results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("mode", p.Mode), results.F("wall_us", p.WallUS),
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteRatiosCSV writes the Fig. 5 series.
func (s *SweepResult) WriteRatiosCSV(w io.Writer) error {
	enc := results.NewCSVEncoder(w)
	if err := enc.Header("rank", "q", "strided_over_sequential"); err != nil {
		return err
	}
	for _, p := range s.StridedRatios() {
		if err := enc.Encode(results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("strided_over_sequential", p.Ratio),
		}); err != nil {
			return err
		}
	}
	return nil
}
