package repro

import (
	"context"
	"io"

	"repro/internal/assembly"
	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/serve"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// Re-exported configuration and result types of the experiment harness.
type (
	// CaseStudyConfig configures an end-to-end run of the paper's
	// application (assembly + simulated machine).
	CaseStudyConfig = harness.CaseStudyConfig
	// CaseStudyResult carries the profiles, records, call trace, density
	// image and wiring diagram of one run.
	CaseStudyResult = harness.CaseStudyResult
	// SweepConfig drives the Figs. 4-8 kernel measurement campaign.
	SweepConfig = harness.SweepConfig
	// SweepResult holds the campaign's proxy-recorded samples.
	SweepResult = harness.SweepResult
	// ComponentModel is a fitted Eq. 1/Eq. 2 performance model.
	ComponentModel = harness.ComponentModel
	// Kernel selects one of the three measured components.
	Kernel = harness.Kernel
	// WorldConfig describes the simulated parallel machine.
	WorldConfig = mpi.WorldConfig
	// Dual is the application's composite-model graph (Fig. 10).
	Dual = assembly.Dual
	// Optimizer selects among component implementations by predicted cost
	// under a Quality-of-Service floor.
	Optimizer = assembly.Optimizer

	// CampaignConfig tunes campaign execution: worker count, progress
	// reporting, sink, store and claimer. Worker count never changes results.
	CampaignConfig = campaign.Config
	// CampaignEvent is one serialized progress report.
	CampaignEvent = campaign.Event
	// Grid cross-products first-class axes (Dimension values) times seed
	// replications into scenario sets.
	Grid = campaign.Grid
	// Dimension is one first-class grid axis: a stable name plus an
	// ordered value list. Build them with CacheAxis, CPUClockAxis,
	// SchedAxis — or literally, for any other parameter.
	Dimension = campaign.Dimension
	// DimValue is one value along a Dimension: a stable key token, a
	// payload, and an optional world mutation.
	DimValue = campaign.DimValue
	// SchedChoice is one value of the scheduler grid axis: a mode plus its
	// parallel-rank cap.
	SchedChoice = campaign.SchedChoice
	// GridPoint is one streamed grid scenario's distilled outcome
	// (coordinates, kernel, fitted model — no buffered sweep).
	GridPoint = harness.GridPoint

	// ResultsServiceOptions tunes NewResultsService (cache capacity,
	// observer).
	ResultsServiceOptions = serve.Options
	// CheckpointStore persists finished campaign-job payloads keyed by
	// (job key, config hash) under a cache directory.
	CheckpointStore = store.Store
	// LeaseManager arbitrates job ownership among independent campaign
	// processes partitioning one grid: per-job lease files under the
	// shared store directory, with heartbeats and stale-lease stealing, so
	// N processes split a grid with zero duplicated executions and no
	// coordinator.
	LeaseManager = lease.Manager
	// LeaseOptions tunes the lease protocol (heartbeat TTL and renewal
	// interval).
	LeaseOptions = lease.Options

	// ObserverOptions configures NewObserver (per-track ring capacity).
	ObserverOptions = obs.Options
	// OwnerExec is one completed job execution attributed to a lease
	// owner, recovered from the store's audit log.
	OwnerExec = obs.OwnerExec

	// TrendAxis selects the numeric grid dimension trend reports fit model
	// coefficients against.
	TrendAxis = harness.TrendAxis
)

// Built-in trend axes for BuildTrends: cache size in kB (the original
// Section 6 study) and CPU clock scale.
var (
	TrendCacheKB  = harness.TrendCacheKB
	TrendCPUClock = harness.TrendCPUClock
)

// Measured kernels.
const (
	KernelStates  = harness.KernelStates
	KernelGodunov = harness.KernelGodunov
	KernelEFM     = harness.KernelEFM
)

// Scheduler modes for WorldConfig.Sched: the serial token scheduler (the
// zero value); the conservative parallel-rank scheduler, which runs rank
// compute segments concurrently; and the optimistic (Time Warp) scheduler,
// which additionally speculates past order-sensitive communication under
// an undo log and rolls back on conflicts. All three produce bit-for-bit
// identical profiles, clocks and outputs.
const (
	SchedSerial               = mpi.Serial
	SchedConservativeParallel = mpi.ConservativeParallel
	SchedOptimisticParallel   = mpi.OptimisticParallel
)

// DefaultCaseStudy returns the calibrated paper configuration (3 ranks,
// 3-level SAMR hierarchy, Godunov flux, monitored).
func DefaultCaseStudy() CaseStudyConfig { return harness.DefaultCaseStudy() }

// RunCaseStudy executes the assembled application and gathers per-rank
// measurements.
func RunCaseStudy(cfg CaseStudyConfig) (*CaseStudyResult, error) {
	return harness.RunCaseStudy(cfg)
}

// DefaultSweep returns the calibrated Figs. 4-8 sweep for a kernel.
func DefaultSweep(k Kernel) SweepConfig { return harness.DefaultSweep(k) }

// RunSweep measures a kernel through the full PMM stack over a size sweep.
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return harness.RunSweep(cfg) }

// FitModels performs the paper's Section 5 regression analysis on a sweep.
func FitModels(s *SweepResult) (*ComponentModel, error) { return harness.FitModels(s) }

// WriteModelReport prints the paper-vs-measured Eq. 1/Eq. 2 comparison.
func WriteModelReport(w io.Writer, cm *ComponentModel) error {
	return harness.WriteModelReport(w, cm)
}

// BuildDual constructs the Fig. 10 composite-model graph from a case-study
// call trace and fitted models.
func BuildDual(res *CaseStudyResult, models map[Kernel]*ComponentModel) *Dual {
	return harness.BuildDual(res, models)
}

// FluxSlot builds the paper's GodunovFlux-vs-EFMFlux implementation choice
// for the optimizer.
func FluxSlot(vertex string, godunov, efm *ComponentModel) assembly.Slot {
	return harness.FluxSlot(vertex, godunov, efm)
}

// RunCacheStudy refits a kernel's model under each cache size (in kB),
// one parallel campaign job per size (the paper's Section 6 outlook).
func RunCacheStudy(ctx context.Context, cc CampaignConfig, base SweepConfig, cacheKBs []int) ([]GridPoint, error) {
	return harness.RunCacheStudy(ctx, cc, base, cacheKBs)
}

// StreamSweepGrid runs a scenario grid with streaming results: telemetry
// rows go to cc.Sink and only the fitted GridPoints come back, so memory
// stays bounded as the grid grows. With cc.Store set, finished scenarios
// checkpoint and an interrupted grid resumes without re-running them.
func StreamSweepGrid(ctx context.Context, cc CampaignConfig, base SweepConfig, g Grid) ([]GridPoint, error) {
	return harness.StreamSweepGrid(ctx, cc, base, g)
}

// OpenStore opens (creating if needed) a checkpoint store directory for
// CampaignConfig.Store.
func OpenStore(dir string) (*CheckpointStore, error) { return store.Open(dir) }

// DistributedCampaignConfig equips a campaign config for coordinator-free
// multi-process execution against the shared store directory: each job
// runs in exactly one of the processes and is replayed from the store by
// the rest, so every process's output is byte-identical to a
// single-process run. Close the returned manager after the campaign.
func DistributedCampaignConfig(cc CampaignConfig, dir, owner string, opts LeaseOptions) (CampaignConfig, *LeaseManager, error) {
	return harness.DistributedConfig(cc, dir, owner, opts)
}

// ReadLeaseAudit collects every worker's completed-execution log under a
// shared store: job key to the owners that executed it. One owner per key
// proves a campaign ran with zero duplicated executions.
func ReadLeaseAudit(st *CheckpointStore) (map[string][]string, error) {
	return lease.ReadAudit(st)
}

// ReadLeaseAuditEntries is ReadLeaseAudit with the full per-execution
// detail (owner, key, elapsed time, end timestamp) — the input to the
// per-owner throughput report.
func ReadLeaseAuditEntries(st *CheckpointStore) ([]lease.AuditEntry, error) {
	return lease.ReadAuditEntries(st)
}

// NewObserver builds an observer with a fresh tracer and registry.
func NewObserver(opts ObserverOptions) *obs.Observer { return obs.New(opts) }

// EnableObserver installs the process-global observer picked up by the
// campaign engine, the MPI world, the checkpoint store and the lease
// manager. Those layers capture their instruments at construction time,
// so enable before OpenStore/DistributedCampaignConfig and before running
// a campaign. Observation is write-only: an observed run's outputs,
// scenario keys, checkpoint hashes and seeds are byte-identical to an
// unobserved run's.
func EnableObserver(o *obs.Observer) { obs.Enable(o) }

// DisableObserver removes the process-global observer.
func DisableObserver() { obs.Disable() }

// WriteOwnerReport renders the per-owner throughput table from lease
// audit executions (convert ReadLeaseAuditEntries' values via OwnerExec).
func WriteOwnerReport(w io.Writer, execs []OwnerExec) error {
	return obs.WriteOwnerReport(w, execs)
}

// WriteTrackReport renders the per-track (worker/rank/owner) summary of
// a parsed trace.
func WriteTrackReport(w io.Writer, tf *obs.TraceFile) error {
	return obs.WriteTrackReport(w, tf)
}

// ParseTrace reads a Chrome trace-event JSON document; ValidateTrace
// checks it against the structural rules chrome://tracing relies on.
func ParseTrace(data []byte) (*obs.TraceFile, error) { return obs.ParseTrace(data) }
func ValidateTrace(tf *obs.TraceFile) error          { return obs.ValidateTrace(tf) }

// NewAggSink returns a Sink aggregating numeric fields on the fly.
func NewAggSink() *results.AggSink { return results.NewAggSink() }

// NewCSVShardSink returns a Sink writing one CSV shard file per key under
// dir.
func NewCSVShardSink(dir string) (*results.CSVShardSink, error) {
	return results.NewCSVShardSink(dir)
}

// NewBinShardSink returns a Sink writing one binary row shard per key
// under dir. Tee it with a CSV sink to get both formats as siblings.
func NewBinShardSink(dir string) (*results.BinShardSink, error) {
	return results.NewBinShardSink(dir)
}

// NewResultsService opens a campaign rows directory (or a campaign
// output directory containing rows/) as a query service; its Handler
// serves the resultsd HTTP API documented in docs/resultsd-api.md.
func NewResultsService(dir string, opts ResultsServiceOptions) (*serve.Service, error) {
	return serve.New(dir, opts)
}

// NewTee returns a Sink fanning every row out to all the given sinks.
func NewTee(sinks ...results.Sink) results.Sink { return results.NewTee(sinks...) }

// Axis constructors for Grid.Axes: the per-rank cache capacity in kB and
// the CPU clock scale, both mutating the scenario's machine.
func CacheAxis(kbs ...int) Dimension      { return campaign.CacheAxis(kbs...) }
func CPUClockAxis(s ...float64) Dimension { return campaign.CPUClockAxis(s...) }

// SchedAxis sweeps the rank scheduler (serial, conservative parallel,
// optimistic parallel). The axis is seed-inert: scenarios differing only
// in scheduler share a derived seed, so a grid can verify at scale that
// the parallel schedulers reproduce serial results bit for bit.
func SchedAxis(choices ...SchedChoice) Dimension { return campaign.SchedAxis(choices...) }

// BuildTrends fits model coefficients against the chosen swept dimension
// over streamed grid points, one report per measured kernel (the paper's
// Section 6 "coefficients parameterized by processor speed and a cache
// model").
func BuildTrends(points []GridPoint, axis TrendAxis) ([]*harness.TrendReport, error) {
	return harness.BuildTrends(points, axis)
}

// WriteTrendCSV writes trend reports as one long-format CSV.
func WriteTrendCSV(w io.Writer, reports []*harness.TrendReport) error {
	return harness.WriteTrendCSV(w, reports)
}

// WriteTrendReport prints the human-readable trend analysis.
func WriteTrendReport(w io.Writer, reports []*harness.TrendReport) error {
	return harness.WriteTrendReport(w, reports)
}
