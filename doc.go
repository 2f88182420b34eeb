// Package repro is a Go reproduction of "Performance Measurement and
// Modeling of Component Applications in a High Performance Computing
// Environment: A Case Study" (Ray, Trebon, Armstrong, Shende, Malony;
// IPDPS/PMEO 2004, SAND2003-8631).
//
// The repository implements the paper's full stack from scratch:
//
//   - a CCA component framework in the style of CCAFFEINE (ports, services,
//     assembly scripts, SCMD parallel execution);
//   - the MPI-1 subset the case study calls (point-to-point with Waitsome,
//     Barrier, Allreduce, Bcast, Allgather, Comm_dup over world-spanning
//     communicators), running P simulated ranks over goroutines with
//     deterministic virtual clocks;
//   - a TAU-style measurement library (wall-clock timers, groups, hardware
//     counter queries, the Fig. 3 FUNCTION SUMMARY);
//   - the paper's PMM infrastructure: proxies, the Mastermind, its record
//     objects, call-trace capture. The proxies are generated (cmd/proxygen)
//     from the //pmm:monitor directives on internal/components/ports.go's
//     port methods, the paper's §6 mark-up of the arguments that affect
//     performance. A proxy opens one record per monitored method when it
//     wires, named by its call edge (proxy, provided port, method), and
//     brackets each call with that record's Start and Stop; a record keeps
//     its invocations as columns (one per parameter, MPI time, one per
//     metric delta, metric 0's being the wall time), so a monitored call
//     builds no name and no row. Compute time (wall minus MPI) is derived
//     where a record is written, and the call trace is read off the
//     records (core.Trace: each edge weighted by its record's length);
//   - the scientific case study: a structured-AMR simulation of a Mach 1.5
//     shock hitting an Air/Freon interface, built from States,
//     EFMFlux/GodunovFlux, RK2, AMRMesh and ShockDriver components;
//   - regression-based performance models (Eqs. 1-2) and the composite-model
//     dual graph with implementation-choice optimization (Fig. 10);
//   - a campaign engine (internal/campaign) that runs the evaluation as a
//     parallel job graph: every sweep and case study is an independent
//     simulated-machine job executed by a worker pool, and the fits and
//     figures derived from them are jobs that depend on them;
//   - a streaming result subsystem (internal/results) — row sinks,
//     a content-addressed checkpoint store, and cross-scenario trend
//     reports — so campaigns scale to thousands of scenarios and resume
//     after interruption.
//
// The way in is the commands; the packages under internal/ are theirs and
// this root package holds nothing but this comment. A tour:
//
//	go run ./cmd/pmmcase -procs 1 -nx 48 -ny 12 -steps 6 -records  # smallest end-to-end run: profile + records
//	go run ./cmd/figures -fig 1 -out figs   # one figure's subgraph; 1, 2, 3 and 9 are the case study
//	go run ./cmd/figures -fig 6 -out figs   # Eqs. 1-2: sweep, fit, paper vs measured, cache-aware fit (7, 8: the fluxes)
//	go run ./cmd/figures -fig 10 -out figs  # composite model; flux choice with and without the QoS floor
//	go run ./examples/campaign && go run ./cmd/resultsd -dir campaign-out  # a grid campaign, then served
//
// examples/campaign is what no command line spells — a custom Dimension
// literal, a distinct-measurement count, an in-process results service and two
// in-process lease workers — and examples/adaptive is the Section 6 online
// implementation switch; go test runs both.
//
// # Simulated memory, host memory
//
// What a kernel's data costs is decided by virtual addresses, not by where
// the Go runtime put the floats: platform.Proc.Alloc hands out one address
// range per plane from an append-only per-rank heap, and the cache model
// sees only those. So the addresses are part of the simulated machine and
// never move, while the host memory behind a temporary block or edge field
// is not and is recycled: a sweep's recording, RK2 and InviscidFlux
// build their temporaries on a euler.Scratch — one slab, handed out plane
// by plane, taken back whole, never cleared, and the block and edge field
// headers with it — and still call Alloc once per plane, in the same order.
// A sweep takes its arena from a free list, so the next sweep in the
// process reuses the slab. Persistent AMR patches own zeroed storage
// (euler.NewBlock). The rest of the case study's per-step host bookkeeping
// lives on the amr.Hierarchy: each level's local patch list and
// ghost-exchange plan are derived once per structural change (construction,
// Regrid and LoadBalance bump a generation counter) and never written in
// place, and the halo receive and pack buffers only grow. mpi's Isend copies
// its payload before it returns, into a message the world recycles once its
// receive has read it for the last time (under the optimistic scheduler,
// once the committed receive's event is reclaimed, with the event itself),
// and returns the communicator's one completed send request. A collective
// reads its members' contributions in place, since each member stays in
// the call until the last arrival has computed the results, and copies
// only Bcast's payload, which outlives the call. None of this
// moves a simulated byte: messages, sizes and charges are those of fresh
// storage. The internal/euler package comment has the details and the tests
// that hold "written before read" and "same addresses" true; the mpi
// Poison tests refill every released message with NaNs.
//
// # Campaigns
//
// The paper's evaluation is a campaign: three kernel sweeps (Figs. 4-8),
// a case study (Figs. 3/9/10) and a cache-size study, each a run of a
// self-contained simulated machine. The campaign engine executes such runs
// concurrently with deterministic results:
//
//   - a job graph (campaign.Job, with After dependencies) is submitted
//     via campaign.Run and executed by campaign.Config.Workers workers;
//   - every job's machine draws its randomness from its own config seed,
//     never from scheduling, so output is byte-identical for any worker
//     count;
//   - errors aggregate across jobs (errors.Join) and progress events
//     stream serially through campaign.Config.OnProgress.
//
// # Scheduler modes
//
// Every simulated world schedules its ranks under one of three modes
// (mpi.WorldConfig.Sched), which share two mechanisms:
//
//   - mpi.ConservativeParallel is a conservative parallel-discrete-event
//     scheduler: rank compute segments — which touch only rank-local
//     state (virtual clock, cache model, RNG, TAU profile) — run
//     concurrently on real goroutines, each rank running ahead to its
//     next interaction (its lookahead horizon: the next receive, wait or
//     collective that could observe another rank, bounded below by
//     pending message arrivals and the network model's minimum latency).
//     Every operation on order-sensitive shared state (mailbox matching,
//     collective completion, communicator-id allocation, collective-cost
//     noise draws) commits under a token, in one total order: when the
//     token holder blocks inside MPI the token passes to the runnable rank
//     with the smallest virtual clock. Sends are buffered rank-locally
//     during run-ahead and flushed at the sender's commit turn.
//     MaxParallelRanks caps concurrent ranks (0 = no cap).
//   - mpi.Serial (the zero value) is the same scheduler with one compute
//     slot: exactly one rank goroutine executes at a time, so one world
//     uses one core. Its order is "the serial order" the other modes
//     reproduce.
//   - mpi.OptimisticParallel is an optimistic (Time Warp) scheduler: on
//     top of concurrent compute, ranks speculate past order-sensitive
//     communication instead of waiting for their commit turn. Sends
//     publish immediately; a receive from a specific source completes the
//     moment its message is found (the pipelined fast path — per-sender
//     publication order equals committed order, so no speculation is
//     needed); wildcard (AnySource) matches and multi-request Waitsome
//     picks are speculative: the rank checkpoints its local state (virtual
//     clock, cache model, RNG position, TAU counters, request buffers)
//     into an undo log, and a commit automaton replays the serial token
//     discipline over the recorded per-rank event streams to validate
//     every pick. A mispredicted pick rolls the rank back to its
//     checkpoint and re-executes against the committed truth, so results
//     stay bit-identical to Serial. Collectives speculate too: a rank
//     whose peers have all published their contributions computes the
//     collective result itself — running ahead without a verdict when the
//     completion is provably exact (no network noise, or a cost-noise
//     draw whose index the commit order pins), and otherwise parking on a checkpointed
//     tentative result that the commit replay confirms or rolls back.
//     Speculation depth is bounded by a fixed 4096-event window: a rank
//     whose recorded stream runs that far past the commit frontier parks
//     until the automaton catches up, which bounds stream memory and
//     guarantees quiescence for deadlock detection. The scheduler's whole
//     configuration surface is {mode, MaxParallelRanks}. Telemetry —
//     published sends, pipelined ops, speculated ops, conflicts,
//     rollbacks, re-executed virtual time, window stalls,
//     speculative-collective hits and rollbacks — has one home:
//     World.SpecStats, folded into the mpi_spec_* metrics at the end of
//     Run and printed in the deadlock dump. It depends on host timing, so
//     it never reaches rows/.
//
// The determinism guarantee is bit-for-bit, proven by test, not hoped
// for: both parallel schedulers produce the case study's profiles, virtual
// clocks, message orders and rendered bytes, and every mpi reference
// body's, identically to serial (see TestCaseStudyParallelEquivalence,
// TestPropertySchedulerEquivalence and the forced-conflict rollback
// tests). A sweep runs no scheduler: it records one rank on a one-rank
// serial world. The scheduler is the one world field a job's checkpoint hash
// leaves out: every mode measures the same bytes, so a store filled under
// one mode serves the others.
//
// When does parallel-rank pay off? Measured, not argued: one 16-rank world
// per body of internal/mpi's BenchmarkWorldRun, host milliseconds and heap
// allocations per world on 2 cores. The par and opt columns come from
// "bench -workload comm_p16 -trace 1" (seed 1); the serial column, taken
// once serial had become the one-slot conservative scheduler, is the median
// of three "go test -bench WorldRun -benchtime 20x" runs, in which par read
// 60, 8.5, 0.55 and 1.6 ms. The allocation counts are newer than the
// timings: "bench -trace 1"'s allocs_per_run once messages and optimistic
// events were recycled within a world (ghost read 5 570 serial and par and
// 5 870 opt before any recycling) and collectives read their contributions
// in place (coll read 2 861 serial and par and 3 117 opt before):
//
//	          serial            par               opt
//	compute   120 ms            74 ms             73 ms
//	ghost     8.9 ms   1 041    9.2 ms   1 041    7.7 ms   1 301
//	wildcard  0.71 ms    995    0.42 ms    995    1.03 ms  1 004
//	coll      1.55 ms  1 725    1.16 ms  1 725    2.26 ms  2 949
//
// The compute body is real kernel work and scales with cores under both
// parallel modes; about half of the ghost row is the body's own
// arithmetic, which "opt" overlaps because its specific-source receives
// never wait for the commit token (1 580 pipelined operations, no
// rollback). On wildcards "opt" pays for 221 rollbacks of 240 speculations
// and is 2.5x "par"; on collectives its 1 152 speculative completions are
// all correct and it is still 2x "par" (its parked ranks share one
// condition variable, so each event wakes them all). So on these bodies
// "par" ties or beats "serial" and wins when ranks compute without
// communicating. On the case study it does not win: DefaultCaseStudy
// (cmd/pmmcase, 3 ranks, three runs per mode on 2 cores) took 0.91-1.02 s
// serial, 0.89-0.98 s par and 0.64-0.73 s opt, and par ran on one CPU (user
// time equal to wall time) where opt used 1.6. The likely cause: a rank
// that gets the commit token back from Waitsome keeps it through its next
// compute segment, so its peers cannot finish their own Waitsome until it
// re-enters MPI. Opt's speculative Waitsome is what overlaps that compute.
// "opt" wins only when specific-source traffic has compute to overlap, and
// pure compute gains nothing over the conservative mode (watch
// SpecStats.Conflicts where AnySource traffic with genuine races is
// unavoidable). Across-world
// campaign parallelism (campaign.Config.Workers) is the first lever: whole
// scenarios are embarrassingly parallel. The two compose multiplicatively
// (worlds x ranks); prefer campaign workers when the grid has many
// scenarios, and add parallel ranks ("-rankmode par", or "-rankmode opt8"
// to cap concurrency at 8 ranks, on cmd/figures and cmd/pmmcase; the
// Sched and MaxParallelRanks of a campaign.Grid's Base world) when
// individual worlds are large or few. The scheduler is how a world runs,
// not a grid coordinate: no scenario key or seed names it, and
// scheduler equivalence at grid scale is checked by running one grid under
// each Base scheduler (TestSchedGridEquivalenceAtScale).
//
// # Grids and dimensions
//
// A campaign.Grid is the cross product of first-class axes times seed
// replications. Each axis is a campaign.Dimension — a stable name plus an ordered
// value list, where every value carries a stable key token (one segment
// of the scenario key) and an optional mutation of the scenario's
// simulated machine:
//
//   - built-in axes (internal/campaign) are the ones something sweeps:
//     RankAxis (world
//     size), CacheAxis (per-rank cache kB), CPUClockAxis (a scale on the
//     CPU model's clock — the Section 6 "parameterized by processor
//     speed" knob; cache and clock are the two machine axes) and the
//     app-level FluxAxis (godunov/efm/states), which the harness maps onto
//     the measured kernel through the scenario's coordinate;
//   - every other axis is a Dimension literal at its one use — a name,
//     keys and Apply hooks — with no library change (see
//     examples/campaign, whose "memlat" axis scales CPU.MissCycles, the
//     main-memory latency every cache miss pays);
//   - expansion (Grid.Scenarios) is deterministic, derives each
//     scenario's seed via campaign.DeriveSeed(base, key) so replications
//     draw independent streams, and rejects duplicate axis names or value
//     keys, which would silently alias scenario keys and checkpoint
//     entries;
//   - unswept rank/net/cache axes contribute implicit single-valued
//     defaults (key segments "p3", "base", "c512kB"), and any other
//     unswept axis contributes nothing, so scenario keys and seeds are
//     stable as the axis library grows.
//
// A Scenario carries its coordinate on every axis ([]Coord) rather than
// one struct field per dimension, so the one grid driver —
// harness.StreamSweepGrid — and the trend reports handle any axis generically.
//
// See examples/campaign for a grid study and cmd/figures for the full
// figure-regeneration graph.
//
// # How a sweep is priced
//
// A kernel charges the simulated machine by patch shape, never by field
// data or by rank, so every rank of a sweep issues the same charges in the
// same order, on every machine and at every seed. Every sweep (SweepJob,
// StreamJob, RunSweep) therefore records one rank of its program — its
// kernel, sizes and repetitions on one fixed machine — prices it on its
// own machine and copies its points to each rank of its world, relabelled.
// Every sweep runs as a job of a campaign.Run (RunSweep runs a Run of one
// job), and the Run's sweeps of one program share one recording:
//
//   - The first of them to run records rank 0 dry, on a one-rank serial
//     world of mpi.DefaultConfig at seed 0: its platform.Proc appends
//     every charge to a platform.Trace (one 24-byte event per
//     ChargeStreamHinted, ChargeFlops, ChargeCall or AdvanceCycles, plus a
//     mark before and after every monitored call) and walks no cache. Advance and SyncTo take values off a clock that
//     lacks the streams' prices, so a recording Proc panics on either.
//   - Trace.Walk runs the recording's streams through an empty cache of
//     the sweep's geometry and keeps each stream's misses. LRU sets are
//     independent, so the walk splits by set (cache.Part) across as many
//     cores as GOMAXPROCS less the walks already in flight allows; the
//     parts' misses sum to the whole cache's, stream by stream. A walk
//     depends on the streams and the cache alone, so the Run's sweeps
//     share it through campaign.Shared, keyed by stream digest and cache
//     geometry, once two traces' streams compare equal element by element:
//     Godunov and EFM issue the same streams, and a CPU clock axis walks
//     once.
//   - Trace.Price applies the charges in order to a fresh Proc of the
//     sweep's machine with those misses, so the PAPI counters move and
//     every clock advance rounds as in a live run there, and reads each
//     invocation's wall time and PAPI_L2_DCM delta between its marks.
//
// TestRepricedSweepMatchesLive holds the priced sweep to a live one-rank
// sweep bit for bit at every trend-axis point, and
// TestSweepRanksMatchRankZero the copied ranks to a live three-rank sweep.
// A recording or a walk is made once per Run, deterministic in its key: a
// sweep that finds it in progress waits and takes its outcome, an error
// included. A sweep's own machine is checked by its walk and price, so an
// impossible one fails alone; one served from the store does nothing.
// Buffers go back to process-wide free lists when the Run ends. Keys,
// hashes, payloads and rows are those of a live sweep. Case studies stay
// live: there a message's arrival depends on another rank's clock.
//
// # Results and checkpointing
//
// Campaign jobs do not have to buffer whole results in memory: they stream
// rows into a results.Sink (campaign.Config.Sink), and the streaming grid
// driver (harness.StreamSweepGrid) keeps only a small GridPoint per scenario, so a
// thousand-scenario grid runs in bounded memory:
//
//   - a Row is an ordered list of named, typed fields; jobs emit rows
//     under their campaign key via campaign.Emit;
//   - sinks are concurrency-safe and deterministic (rows keep per-key
//     order): results.NewCSVShardSink writes one CSV file per key (as
//     <file>.part until the sink's Close renames it, so no torn shard),
//     results.NewBinShardSink writes the same rows in the length-prefixed
//     binary shard format (see "Results service" below),
//     results.NewMemorySink buffers for tests, results.NewTee fans
//     out to several sinks at once; results.ReadRowsFile decodes either shard format
//     back into rows, results.ReadColumnsFile into a few numeric columns;
//   - the store keeps what the simulator measured and nothing derived
//     from it: every harness job (SweepJob, CaseStudyJob, StreamJob) is
//     a measurement job, and with campaign.Config.Store set (store.Open)
//     its finished *SweepResult or *CaseStudyResult persists
//     content-addressed by (job key, config hash), so an interrupted
//     campaign — a killed cmd/figures run, a canceled grid — resumes
//     re-running zero completed measurements and produces byte-identical
//     output, with cached jobs replaying their rows into the sink. Fitted
//     models (a grid point's included) and rendered figures are derived
//     from the measurements on every run, cached or not, so no store
//     entry can outlive the code that drew it. The hash is SHA-256 over
//     the %#v rendering of the job's plain-value config structs plus a
//     checkpoint version, so hashes are stable within a version and
//     distinct for distinct configs. Changing a config struct or a
//     payload type means bumping the version and refilling the store
//     (a harness test pins the payload types' gob-visible tree to the
//     version); entries under an older version are never read. Payloads
//     encode to the same bytes every time: they hold slices, never maps;
//   - the cross-scenario trend report (harness.BuildTrends,
//     WriteTrendCSV, WriteTrendReport) fits every model coefficient against a swept
//     machine axis — the paper's Section 6 "coefficients parameterized by
//     processor speed and a cache model". The axes are the two rows of
//     one table in internal/harness (TrendCacheKB, TrendCPUClock): a row
//     names the axis, builds the grid Dimension that sweeps it and reads
//     it back off a scenario, so "cmd/figures -fig trend [-axis cpu_clock]
//     [-trendvalues 1,2,4]" accepts exactly the table's names and rejects
//     anything else before it runs. Its grid is the axis times
//     FluxAxis("states") with one replication: a kernel sweep's rows do
//     not depend on the seed (a harness test pins it), and the flux
//     segment names the kernel in every key, so resultsd's /trend over
//     the run's rows/ serves trend.csv's coefficients bit for bit. Each
//     model figure (fig6..8_model.txt) ends with its sweep's cache-aware
//     fit T = c0 + c1*Q + c2*DCM (harness.CacheAwareFit).
//
// # Distributed campaigns
//
// The checkpoint store is content-addressed and atomic, so several hosts
// can share one store directory over a network filesystem — and the lease
// protocol (results/store/lease) lets N independent processes partition
// one grid's measurement jobs through it with no coordinator; jobs
// without a checkpoint hash (a figure render) are not claimed, and every
// process runs them over the measurements it ran or replayed. Set campaign.Config.Claimer
// (lease.Open, or harness.DistributedConfig to wire store and claimer
// together) and point every process at the same store:
//
//   - lease lifecycle: a worker claims a job by creating its lease file
//     exclusively (the record is written to a temp file and link(2)ed
//     into place, so it appears atomically and fully written); a held
//     lease is rewritten with a fresh heartbeat timestamp every
//     lease.Options.TTL/4; the claim is released — audit line first,
//     then lease removal — after the job's checkpoint is stored, at which
//     point the payload answers every later claim with "done";
//   - jobs claimed by another live process are deferred, not blocked on:
//     workers move to other ready jobs and re-probe every
//     campaign.Config.ClaimBackoff, decoding the payload (and replaying
//     its rows) once it appears — so each process's sinks and rendered
//     files stay byte-identical to a single-process run while each
//     scenario executes exactly once across the fleet, as the per-owner
//     audit logs under <store>/leases/ prove;
//   - crashed workers stop heartbeating: once a lease's heartbeat is
//     older than lease.Options.TTL, any claimant steals it (rename-aside
//     with exactly one winner, then an ordinary exclusive re-claim), so
//     the grid always drains;
//   - heartbeat/expiry knobs: TTL defaults to 30s and the renewal
//     interval to TTL/4. Choose TTL well above worst-case clock skew
//     between hosts and the filesystem's attribute-cache delay; a live
//     worker that stalls past TTL can have its job stolen and executed
//     twice, which the deterministic byte-identical payloads make
//     harmless but the audit makes visible;
//   - NFS caveats: the exclusive-link claim and rename-based steal need
//     NFSv3+ semantics, hosts should be NTP-synchronized, and attribute
//     caching (acregmin/acregmax) delays cross-host visibility of fresh
//     checkpoints — generous TTLs and ClaimBackoffs absorb both.
//
// "cmd/figures -distributed -owner <id> -cache <shared dir>" runs this
// mode from the command line; hosts x campaign workers x parallel ranks
// compose multiplicatively.
//
// # Results service
//
// A finished campaign's rows directory is itself a queryable performance
// model: cmd/resultsd (internal/results/serve, opened with serve.New)
// serves it over HTTP without re-running a single
// simulation. Point it at a rows directory — or a campaign output
// directory containing rows/ — and it fits the paper's regression models
// on demand:
//
//	resultsd -dir campaign-out -addr 127.0.0.1:9190
//
// Endpoints (GET only; JSON):
//
//   - /          service summary: scenarios, axes, backends, endpoints;
//   - /healthz   liveness;
//   - /metrics   obs registry text exposition;
//   - /scenarios catalog metadata (no shard decoded); optional ?name=;
//   - /scenario  full detail — rows, fitted coefficients and model
//     descriptions per backend — for scenarios matching the selectors;
//   - /predict   evaluate one measure of one scenario at a point;
//   - /trend     fitted-coefficient-vs-axis curves across the scenarios
//     matching a filter.
//
// The query grammar mirrors the scenario-key grammar: a key like
// "p4_base_c256kB_cpu1.5x_states_r0" parses into coordinates on the
// ranks, cache_kb, cpu_clock and rep axes and free tags (any other token
// — "base" and "states" above, or a custom axis's key), so
// /scenario and /trend accept selectors by name ("name="), by tag
// ("tag=states") and by numeric axis value ("cache_kb=256", "ranks=4", ...). /predict takes scenario, measure
// (mean_us, sigma_us, throughput, response_us, utilization), model
// (fitted — the default — or queue), and the evaluation point: q,
// optional lambda (arrival rate, 1/s) and dcm (L2 data-cache misses).
// The fitted backend serves the paper's form when the scenario names its
// kernel, else AIC-best of linear, quadratic and power law (Eqs. 1-2;
// perfmodel.FitComponent), plus the multivariate fit over (Q, DCM) when
// cache counters are present; the queue backend treats
// the measured service demand as an M/M/1 server (Section 5's queueing
// view) and answers response_us and utilization from (q, lambda).
//
// Scenario shards load through a read-through model cache: first touch
// reads the shard and fits every backend, concurrent requests for the
// same scenario share one load (singleflight), and an LRU bound (-cache,
// default 256 scenarios) evicts the coldest entry. A model load never
// builds rows: the fits need three numbers per row (q, wall_us, l2_dcm),
// so a results.ColumnReader projects those columns straight out of the
// shard bytes — value plus a present bit per row, "first field of that
// name, int or float only". Loads reuse pooled buffers: each takes a
// scratch from a sync.Pool holding a ColumnReader (file bytes, column
// arrays) and the multilinear fit's feature vectors, and gives it back
// when both backends are fitted, so a cold load allocates the models and
// nothing that grows with the shard. The Columns a reader returns alias
// it until its next Read; the models copy what they keep.
// results.ReadColumnsFile is the one-shot form, with a reader of its own.
// Full row decode (results.ReadRowsFile) remains for tooling.
// Both are consumers of one parser,
// the allocation-free field cursor in internal/results/binrow.go, which
// owns every framing check of the format below; CSV shards answer the
// same projection call through ReadCSVRows. Hits, misses,
// evictions and load latency are exported as resultsd_cache_* counters
// and the resultsd_scenario_load_us histogram on /metrics; failed loads
// (a load that panics included: it becomes that query's error and frees
// the scenario for the next one) are never cached. SIGINT/SIGTERM drains
// in-flight requests, writes the -cpuprofile/-memprofile files and exits
// 0. The determinism contract extends to the service:
// responses carry no timestamps, no absolute paths and no map-ordered
// JSON, so two resultsd instances over byte-identical stores return
// byte-identical bodies for every request — CI curls a live instance
// and diffs against the documented examples.
//
// What cannot change is rendered once, and what answers most queries is
// appended by hand. The catalog is fixed at Open, so its axis list and
// each scenario's /scenarios list element are rendered there, and a
// /scenarios body is assembled from those elements. A resident model's
// Describe text and coefficients are rendered on the first query that
// needs them and kept with the cache entry. /predict and /trend bodies
// are appended field by field into a pooled buffer, with encoding/json's
// string escaping (HTML characters, U+2028/U+2029, invalid UTF-8) and
// float spelling, skipping its reflection and indenting pass; a /trend
// coefficient that is NaN or infinite falls back to the encoder and its
// error. /scenario, /, /healthz and error bodies stay on encoding/json
// (json.Encoder with the same indentation, so the same bytes as
// MarshalIndent plus a newline). Every body is sent in one write with its
// Content-Length. TestScenarioListMatchesEncoder, the appender tables in
// render_test.go and FuzzServeQuery hold the appended bodies to
// json.MarshalIndent of the same answer, and TestHotQueryAllocations
// bounds what a hot query allocates. The fuzz target also holds every
// answer to a documented status: a NaN or infinite parameter is a 400,
// and a prediction that is not finite is a 422, never a 500. cmd/resultsd caps request headers at 64 KiB (431
// beyond) and bounds the time to write a reply.
//
// Binary row shards are the service's preferred input:
// results.NewBinShardSink writes one <key>-<hash>.bin file per campaign key (the same naming as
// the CSV shards) — magic "RRBS", one version byte, then
// per row a uvarint body length and a body of uvarint-counted fields
// (uvarint name length + name, a tag byte, then the value: 1 = int as
// zigzag varint, 2 = float64 as little-endian IEEE 754 bits, 3 = string
// as uvarint length + bytes, 4 = bool as one byte). Encoding is a pure
// function of the rows, so equal rows give byte-identical shards, and a
// binary shard re-encoded as CSV reproduces the sibling CSV shard byte
// for byte ("cmd/figures -rowformat csv|bin|both" writes either or
// both; resultsd reads both, preferring .bin when a stem has both). The
// full request/response contract — parameter tables, example bodies,
// error codes (400/404/405/422) and a curl walkthrough — lives in
// docs/resultsd-api.md.
//
// # Observability
//
// The stack observes itself (internal/obs: obs.New, obs.Enable and
// friends): a span tracer and a metrics
// registry that the campaign engine, the lease protocol, the checkpoint
// store and the simulated MPI world record into. The design holds two
// invariants:
//
//   - Determinism: observation is write-only. Nothing recorded feeds
//     back into scheduling, scenario keys, checkpoint hashes or seeds,
//     so an observed run renders byte-identical output to an unobserved
//     one (TestObservedRunByteIdentical pins this over the golden grid).
//   - Nil-safety: every tracer and registry method no-ops on a nil
//     receiver. Layers capture possibly-nil instrument handles when they
//     are constructed, so disabled observability costs one nil check per
//     event. Because capture happens at construction, obs.Enable must
//     run before store.Open / harness.DistributedConfig / mpi.NewWorld /
//     campaign.Run; the commands get that order from obs.Outputs.Start,
//     which also flushes trace, metrics and profiles on every way out.
//
// The tracer keeps one track — a fixed-size ring buffer under its own
// mutex, oldest events overwritten and the drop count exported — per
// campaign worker ("campaign"/"worker NN": one span per job, annotated
// run/cached/error, plus claim-deferral instants), per simulated rank
// ("mpi"/"wW rank R": one span per MPI call, compute-gap spans between
// calls, and speculation instants — speculate, conflict, rollback,
// window stall), and per lease owner ("lease"/<owner>: hold spans,
// claim/steal instants). Export produces Chrome trace-event JSON that
// chrome://tracing and Perfetto load directly.
//
// The registry exposes counters and fixed-bucket histograms in
// a Prometheus-flavoured text format. Metric names follow
// <layer>_<what>_total for counters and <layer>_<what>_us for latency
// histograms: campaign_jobs_settled_total, campaign_job_us,
// store_puts_total, store_get_us, lease_claims_total, lease_steals_total,
// lease_hold_us, mpi_token_grants_total, mpi_spec_conflicts_total,
// mpi_spec_rollbacks_total and so on — World.SpecStats folds into the
// mpi_spec_* family at the end of every optimistic run.
//
// From the command line, "cmd/figures -trace run.json" writes the trace,
// "-metrics localhost:9090" serves live /metrics and /trace endpoints
// while the campaign executes, and "-metricsdump metrics.txt" writes the
// final registry for CI; "-cpuprofile cpu.prof" and "-memprofile mem.prof"
// (also on cmd/pmmcase) write runtime/pprof profiles of the run for "go
// tool pprof", so the answer to "where does the simulator spend its host
// time" needs no benchmark wrapper. "cmd/obsreport -store <shared dir> -trace
// run.json" turns a finished distributed run's lease audit and trace
// into per-owner and per-track throughput tables, and validates the
// trace schema (-require campaign,lease,mpi) so CI fails when an
// instrumentation layer goes silent. Speculation telemetry is read the
// same way and no other: World.SpecStats in process, the mpi_spec_*
// counters in a "-metricsdump" file or on /metrics. It is host-timing
// data, so no job writes it into rows/ — an output directory is a pure
// function of the configuration under every scheduler.
//
// # Static analysis
//
// The byte-identity invariants above are enforced statically, not just by
// golden tests — a golden catches a violation only where it looks and,
// for map order, only with some probability. internal/lint implements
// two repository-specific analyzers in the go/analysis style
// (self-contained on the standard library — packages load via "go list
// -export" and the gc export-data importer, so the suite runs offline):
//
//   - wallclock: time.Now/Since/Until, the global math/rand functions and
//     process identity (os.Getpid, os.Hostname) in deterministic
//     packages — values must derive from config and seeds;
//   - mapiter: map iteration whose order leaks into an io.Writer, a
//     results Sink or a returned slice without sorting first.
//
// There is one gate and it runs wherever the tests run:
//
//	go test ./internal/lint -run TestRepoClean
//
// loads every package of the module and fails on any unsuppressed
// finding. Legitimate exceptions are annotated in place:
//
//	//repolint:allow wallclock -- lease heartbeats are wall-clock by protocol
//
// The reason after "--" is mandatory and the directive covers its own
// line, the line below it, or — when placed in a function's doc
// comment — the whole function. Malformed or unknown-name directives are
// themselves diagnostics. The allowlist is audited by the same test:
// every suppressed finding must be a wall-clock read (lease heartbeats,
// obs span timestamps, owner ids, bench fingerprints) and their count is
// pinned, so a new exception is a deliberate edit. What the analyzers do
// not police is written down where it applies (lease.Release: lease-file
// I/O runs under the per-address lock, never the manager lock) or
// measured (instrument capture at construction: obs.overhead_pct.*,
// obs.span.ns and the allocation-ceiling tests).
//
// Benchmark: bench/ with BENCHMARK.json is the basis for every speed
// claim — five named workloads, end-to-end metrics with bounds and a
// per-layer budget; see bench/README.md.
//
// This package holds no code: the module path is not fetchable, so every
// importer lives in this tree and imports internal/ directly.
package repro
