package harness

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
	"repro/internal/results"
	"repro/internal/results/store"
)

// TestCheckpointRoundTripPreservesOutputBytes guards the resume guarantee
// at the payload level: a result decoded from the store must render every
// figure byte-for-byte like the live value.
func TestCheckpointRoundTripPreservesOutputBytes(t *testing.T) {
	t.Parallel()
	caseRes, sweeps, _ := sharedFixtures(t)

	sw := sweeps[KernelStates]
	data, err := encodeGob(sw)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := decodeGob[*SweepResult](data)
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*SweepResult, *bytes.Buffer) error{
		"scatter": func(s *SweepResult, b *bytes.Buffer) error { return s.WriteScatterCSV(b) },
		"ratios":  func(s *SweepResult, b *bytes.Buffer) error { return s.WriteRatiosCSV(b) },
	} {
		var want, got bytes.Buffer
		if err := write(sw, &want); err != nil {
			t.Fatal(err)
		}
		if err := write(sw2, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s CSV drifted through checkpoint", name)
		}
	}
	if fmt.Sprint(sw.Rows()) != fmt.Sprint(sw2.Rows()) {
		t.Error("telemetry rows drifted through checkpoint")
	}

	caseData, err := encodeGob(caseRes)
	if err != nil {
		t.Fatal(err)
	}
	case2, err := decodeGob[*CaseStudyResult](caseData)
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*CaseStudyResult, *bytes.Buffer) error{
		"profile":   func(r *CaseStudyResult, b *bytes.Buffer) error { return r.WriteProfile(b) },
		"pgm":       func(r *CaseStudyResult, b *bytes.Buffer) error { return r.WritePGM(b) },
		"ghostcomm": func(r *CaseStudyResult, b *bytes.Buffer) error { return r.WriteGhostCommCSV(b) },
	} {
		var want, got bytes.Buffer
		if err := write(caseRes, &want); err != nil {
			t.Fatal(err)
		}
		if err := write(case2, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("case-study %s drifted through checkpoint", name)
		}
	}
	if case2.AssemblyDOT != caseRes.AssemblyDOT || !reflect.DeepEqual(case2.Edges, caseRes.Edges) {
		t.Error("case-study DOT or trace drifted through checkpoint")
	}
}

// TestCheckpointPayloadBytesDeterministic backs the store's promise that
// one (key, hash) is only ever written with one payload: encoding a
// measurement again gives the same bytes. A map anywhere in a payload
// breaks it (gob writes map entries in iteration order), so each payload
// is encoded several times.
func TestCheckpointPayloadBytesDeterministic(t *testing.T) {
	t.Parallel()
	caseRes, sweeps, _ := sharedFixtures(t)
	for name, payload := range map[string]any{"sweep": sweeps[KernelStates], "case": caseRes} {
		first, err := encodeGob(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			again, err := encodeGob(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again) {
				t.Fatalf("%s payload encodes to different bytes on encode %d", name, i+2)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/payload_schema.txt from the payload types")

// TestPayloadSchemaPinnedToVersion fails when a checkpoint payload type
// changes while checkpointVersion does not. Gob matches fields by name,
// zero-fills the ones a payload lacks and drops the ones a type lost, so
// an old store entry would decode silently wrong; the version bump is
// what makes it unreachable. After bumping, rerun with -update.
func TestPayloadSchemaPinnedToVersion(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# checkpointVersion %s\n", checkpointVersion)
	if err := writeSchema(&sb, reflect.TypeOf(&SweepResult{}), reflect.TypeOf(&CaseStudyResult{})); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/payload_schema.txt"
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		header, _, _ := strings.Cut(got, "\n")
		if strings.HasPrefix(string(want), header+"\n") {
			t.Fatalf("checkpoint payload types changed under %s: bump checkpointVersion, then rerun with -update\n got:\n%s\nwant:\n%s", checkpointVersion, got, want)
		}
		t.Fatalf("%s does not pin %s: rerun with -update", path, checkpointVersion)
	}
}

// writeSchema renders the gob-visible type tree under roots: every named
// type but the predeclared ones, once, in first-reached order, with the
// exported fields gob encodes. A type that encodes itself (GobEncoder) is
// a leaf. An interface fails: gob could only encode it through
// gob.Register.
func writeSchema(w io.Writer, roots ...reflect.Type) error {
	gobEncoder := reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var visit func(t reflect.Type, path string) error
	visit = func(t reflect.Type, path string) error {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
			t = t.Elem()
		}
		if t.Kind() == reflect.Map {
			if err := visit(t.Key(), path+"[key]"); err != nil {
				return err
			}
			return visit(t.Elem(), path+"[elem]")
		}
		if t.Kind() == reflect.Interface {
			return fmt.Errorf("payload field %s is an interface (%s)", path, t)
		}
		if (t.Name() != "" && t.PkgPath() == "") || seen[t] {
			return nil
		}
		seen[t] = true
		if reflect.PointerTo(t).Implements(gobEncoder) {
			fmt.Fprintf(w, "%s GobEncoder\n", t)
			return nil
		}
		if t.Kind() != reflect.Struct {
			fmt.Fprintf(w, "%s %s\n", t, t.Kind())
			return nil
		}
		fmt.Fprintf(w, "%s struct\n", t)
		var fields []reflect.StructField
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.IsExported() && f.Type.Kind() != reflect.Func && f.Type.Kind() != reflect.Chan {
				fmt.Fprintf(w, "\t%s %s\n", f.Name, f.Type)
				fields = append(fields, f)
			}
		}
		for _, f := range fields {
			if err := visit(f.Type, t.String()+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range roots {
		if err := visit(t, t.String()); err != nil {
			return err
		}
	}
	return nil
}

// readShards returns a shard directory's files as name -> content.
func readShards(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// runGridJobs runs the grid's stream jobs on one worker against the given
// store and sink and returns the points and the settle events. With
// interrupt set the second scenario dies mid-run, as if the process were
// killed after the first checkpointed: it cancels the campaign and
// produces nothing.
func runGridJobs(t *testing.T, base SweepConfig, grid campaign.Grid, st campaign.Store, sink results.Sink, interrupt bool) ([]GridPoint, []campaign.Event, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs, err := StreamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	if interrupt {
		jobs[1].Run = func(ctx context.Context, _ map[string]any) (any, error) {
			cancel()
			return nil, ctx.Err()
		}
	}
	var events []campaign.Event
	res, err := campaign.Run(ctx, campaign.Config{
		Workers: 1, Store: st, Sink: sink,
		OnProgress: func(e campaign.Event) { events = append(events, e) },
	}, jobs)
	if err != nil {
		return nil, events, err
	}
	pts := make([]GridPoint, len(res))
	for i, r := range res {
		pts[i] = r.Value.(GridPoint)
	}
	return pts, events, nil
}

// cachedCount counts the jobs a campaign satisfied from its store.
func cachedCount(events []campaign.Event) int {
	n := 0
	for _, e := range events {
		if e.Cached {
			n++
		}
	}
	return n
}

// TestStreamGridInterruptResumeByteIdentical is the end-to-end resume
// guarantee: a streamed grid campaign killed mid-run (context cancel) and
// resumed against the same store re-executes zero completed scenarios and
// produces byte-identical streamed output and trend report.
func TestStreamGridInterruptResumeByteIdentical(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	grid := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(128, 512)},
		BaseSeed: 1,
	}

	runGrid := func(st campaign.Store, shardDir string, interrupt bool) ([]GridPoint, []campaign.Event, error) {
		sink, err := results.NewCSVShardSink(shardDir)
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		return runGridJobs(t, base, grid, st, sink, interrupt)
	}

	// Reference: an uninterrupted run.
	refStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refPts, _, err := runGrid(refStore, refDir, false)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: scenario 0 completes and checkpoints, scenario 1 is
	// killed by the context cancel.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runGrid(st, t.TempDir(), true); err == nil {
		t.Fatal("interrupted grid reported success")
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("store holds %d checkpoints after interrupt (err=%v), want 1", n, err)
	}

	// Resume against the same store: zero completed scenarios re-run.
	resumeDir := t.TempDir()
	resumePts, events, err := runGrid(st, resumeDir, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached := cachedCount(events); cached != 1 || len(events) != 2 {
		t.Errorf("resume: %d cached of %d settled, want 1 of 2", cached, len(events))
	}

	// The resumed run's streamed shards and grid points match the
	// uninterrupted reference byte for byte.
	refShards, resumeShards := readShards(t, refDir), readShards(t, resumeDir)
	if len(refShards) != 2 || len(resumeShards) != 2 {
		t.Fatalf("shard counts: ref=%d resume=%d, want 2", len(refShards), len(resumeShards))
	}
	for name, want := range refShards {
		if got, ok := resumeShards[name]; !ok || got != want {
			t.Errorf("shard %s differs after resume", name)
		}
	}
	var refTrend, resumeTrend bytes.Buffer
	refReports, err := BuildTrends(refPts, TrendCacheKB)
	if err != nil {
		t.Fatal(err)
	}
	resumeReports, err := BuildTrends(resumePts, TrendCacheKB)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrendCSV(&refTrend, refReports); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrendCSV(&resumeTrend, resumeReports); err != nil {
		t.Fatal(err)
	}
	if refTrend.String() != resumeTrend.String() {
		t.Errorf("trend CSV differs after resume:\n--- ref\n%s\n--- resume\n%s",
			refTrend.String(), resumeTrend.String())
	}
}

// TestStreamSweepGridEmitsRowsAndTrend checks the streaming grid's
// contract: points carry fitted models (no buffered sweeps), every
// scenario's rows land in the sink, and the trend report fits each
// coefficient against cache size. Across the cache axis the functional
// form stays put while the coefficients move (the Section 6 claim): the
// smaller cache makes States more expensive.
func TestStreamSweepGridEmitsRowsAndTrend(t *testing.T) {
	t.Parallel()
	wider := fastSweep(KernelStates)
	wider.Sizes = LogSizes(4_000, 100_000, 4)
	for _, tc := range []struct {
		base SweepConfig
		kbs  []int
	}{
		{tinySweep(KernelStates), []int{128, 512}},
		{wider, []int{128, 1024}},
	} {
		t.Run(fmt.Sprintf("%dkB-%dkB", tc.kbs[0], tc.kbs[1]), func(t *testing.T) {
			checkStreamGridTrend(t, tc.base, tc.kbs)
		})
	}
}

func checkStreamGridTrend(t *testing.T, base SweepConfig, kbs []int) {
	grid := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(kbs...)},
		BaseSeed: 1,
	}
	sink := results.NewMemorySink()
	pts, err := StreamSweepGrid(context.Background(), campaign.Config{Sink: sink}, base, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Model == nil || p.Kernel != KernelStates {
			t.Fatalf("%s: incomplete point %+v", p.Scenario.Key, p)
		}
		if _, ok := p.Model.Mean.(perfmodel.PowerLaw); !ok {
			t.Errorf("%s: mean model is %T, want the power law", p.Scenario.Key, p.Model.Mean)
		}
		rows := sink.Rows(p.Scenario.Key)
		if len(rows) == 0 {
			t.Fatalf("%s: no rows streamed", p.Scenario.Key)
		}
		if _, ok := rows[0][4].Float(); rows[0][4].Name != "l2_dcm" || !ok {
			t.Errorf("%s: unexpected row shape %v", p.Scenario.Key, rows[0])
		}
	}
	const q = 80_000
	if small, big := pts[0].Model.Mean.Predict(q), pts[1].Model.Mean.Predict(q); small <= big {
		t.Errorf("%d kB model (%.0f us) should exceed %d kB model (%.0f us) at Q=%d",
			kbs[0], small, kbs[1], big, q)
	}

	reports, err := BuildTrends(pts, TrendCacheKB)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Kernel != KernelStates || len(r.Points) != 2 || len(r.Fits) != len(r.CoeffNames) {
		t.Errorf("report shape: %+v", r)
	}
	// States fits a power law: coefficients lnA and B.
	if len(r.CoeffNames) != 2 || r.CoeffNames[0] != "lnA" || r.CoeffNames[1] != "B" {
		t.Errorf("coeff names = %v", r.CoeffNames)
	}
	var csv, txt bytes.Buffer
	if err := WriteTrendCSV(&csv, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "kernel,cache_kb,n,coeff,value,trend_fit\n") {
		t.Errorf("trend CSV header: %q", csv.String())
	}
	if err := WriteTrendReport(&txt, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "sc_proxy::compute()") || !strings.Contains(txt.String(), "lnA") {
		t.Errorf("trend report: %q", txt.String())
	}

	// Too few cache sizes to fit a trend is a loud error, as is fitting
	// against an axis the grid never swept.
	if _, err := BuildTrends(pts[:1], TrendCacheKB); err == nil {
		t.Error("single-cache trend succeeded")
	}
	if _, err := BuildTrends(pts, TrendCPUClock); err == nil {
		t.Error("trend against an unswept axis succeeded")
	}
}

// fluxScenario builds a bare scenario carrying only a flux coordinate.
func fluxScenario(flux string) campaign.Scenario {
	return campaign.Scenario{
		Key:    "flux-only",
		Coords: []campaign.Coord{{Axis: campaign.AxisFlux, Key: flux, Value: flux}},
	}
}

// TestScenarioConfigMapping checks the flux axis reaches the sweep config
// through its coordinate.
func TestScenarioConfigMapping(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	sc := campaign.Scenario{
		Key: "p2/base/c128kB/m64x32/efm/r0", World: base.World,
		Coords: []campaign.Coord{
			{Axis: campaign.AxisCache, Key: "c128kB", Value: 128},
			{Axis: "mesh", Key: "m64x32", Value: "64x32"},
			{Axis: campaign.AxisFlux, Key: "efm", Value: "efm"},
		},
	}
	sw, err := scenarioSweepConfig(base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Kernel != KernelEFM {
		t.Errorf("flux axis did not select kernel: %s", sw.Kernel)
	}
	if _, err := scenarioSweepConfig(base, fluxScenario("nonsense")); err == nil {
		t.Error("unknown flux accepted by sweep mapping")
	}
}

// TestCPUGridInterruptResume runs the satellite resume guarantee on the
// new machine axis: a CPU-axis grid interrupted mid-run resumes against
// the same store (the existing on-disk format) re-executing only the
// unfinished scenario, with points identical to an uninterrupted run.
func TestCPUGridInterruptResume(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	grid := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CPUClockAxis(1, 2)},
		BaseSeed: 1,
	}

	run := func(st campaign.Store, interrupt bool) ([]GridPoint, []campaign.Event, error) {
		return runGridJobs(t, base, grid, st, nil, interrupt)
	}

	refStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refPts, _, err := run(refStore, false)
	if err != nil {
		t.Fatal(err)
	}
	if refPts[0].Scenario.Key != "p2/base/c512kB/cpu1x/r0" {
		t.Fatalf("unexpected first key %s", refPts[0].Scenario.Key)
	}
	// The doubled clock halves compute time; the fitted models must differ.
	if reflect.DeepEqual(refPts[0].Model, refPts[1].Model) {
		t.Error("clock scale did not move the fitted model")
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(st, true); err == nil {
		t.Fatal("interrupted CPU grid reported success")
	}
	resumePts, events, err := run(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached := cachedCount(events); cached != 1 {
		t.Errorf("resume replayed %d checkpoints, want 1", cached)
	}
	if !reflect.DeepEqual(refPts, resumePts) {
		t.Error("resumed CPU grid points differ from uninterrupted run")
	}
}

// spyStore records the hashes the campaign asks a store for.
type spyStore struct {
	campaign.Store
	asked map[string]bool
}

func (s *spyStore) Get(key, hash string) ([]byte, bool, error) {
	s.asked[hash] = true
	return s.Store.Get(key, hash)
}

// TestStaleStoreEntriesAreInert is the version bump's contract: to a new
// binary, a store filled under an older checkpoint version holds entries at
// hashes no current job computes. They must never be read — the grid
// re-runs in full, with no decode error and the right output — and the
// refilled store must then serve a second run completely.
func TestStaleStoreEntriesAreInert(t *testing.T) {
	t.Parallel()
	base := tinySweep(KernelStates)
	grid := campaign.Grid{
		Base:     base.World,
		Axes:     []campaign.Dimension{campaign.CacheAxis(128, 512)},
		BaseSeed: 1,
	}
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	staleHash := store.Hash("harness-ckpt-v4", "gridpoint", base, scs[0])
	if err := disk.Put(scs[0].Key, staleHash, []byte("not a gob payload")); err != nil {
		t.Fatal(err)
	}
	st := &spyStore{Store: disk, asked: map[string]bool{}}

	run := func(st campaign.Store) ([]GridPoint, map[string]string, int) {
		sink := results.NewMemorySink()
		pts, events, err := runGridJobs(t, base, grid, st, sink, false)
		if err != nil {
			t.Fatal(err)
		}
		return pts, sinkRows(sink), cachedCount(events)
	}
	wantPts, wantRows, _ := run(nil)
	for pass, wantCached := range []int{0, len(scs)} {
		pts, rows, cached := run(st)
		if cached != wantCached {
			t.Errorf("pass %d over the stale store replayed %d job(s), want %d", pass, cached, wantCached)
		}
		if !reflect.DeepEqual(pts, wantPts) || !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("pass %d over the stale store differs from a store-less run", pass)
		}
	}
	if st.asked[staleHash] {
		t.Error("the stale entry's hash was looked up")
	}
}
