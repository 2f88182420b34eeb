package lease

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/store"
)

// openStore opens a fresh store in a test temp dir.
func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// openMgr opens a manager and registers its Close.
func openMgr(t *testing.T, st *store.Store, owner string, opts Options) *Manager {
	t.Helper()
	m, err := Open(st, owner, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestClaimLifecycle(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	a := openMgr(t, st, "a", Options{})
	b := openMgr(t, st, "b", Options{})

	// A wins the vacant slot; B sees a live holder.
	if s, err := a.TryClaim("job/1", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("a claim = %v, %v", s, err)
	}
	if s, err := b.TryClaim("job/1", "h"); err != nil || s != campaign.ClaimBusy {
		t.Fatalf("b claim while held = %v, %v", s, err)
	}

	// A fails the job: the slot reopens and B wins it.
	if err := a.Release("job/1", "h", false); err != nil {
		t.Fatal(err)
	}
	if s, err := b.TryClaim("job/1", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("b claim after failed release = %v, %v", s, err)
	}

	// B completes: payload stored, lease released — everyone sees done.
	if err := st.Put("job/1", "h", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := b.Release("job/1", "h", true); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Manager{a, b} {
		if s, err := m.TryClaim("job/1", "h"); err != nil || s != campaign.ClaimDone {
			t.Fatalf("%s claim after completion = %v, %v", m.Owner(), s, err)
		}
	}
	if got := b.Executed(); !reflect.DeepEqual(got, []string{"job/1"}) {
		t.Errorf("b executed %v", got)
	}
	if got := a.Executed(); len(got) != 0 {
		t.Errorf("a executed %v", got)
	}
}

func TestClaimDoneWhenStoreAlreadyHolds(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	if err := st.Put("job/prev", "h", []byte("old run")); err != nil {
		t.Fatal(err)
	}
	m := openMgr(t, st, "w", Options{})
	if s, err := m.TryClaim("job/prev", "h"); err != nil || s != campaign.ClaimDone {
		t.Fatalf("claim = %v, %v", s, err)
	}
	// No lease file was left behind.
	if _, err := os.Stat(m.leasePath(st.Addr("job/prev", "h"))); !os.IsNotExist(err) {
		t.Errorf("lease file exists after done verdict: %v", err)
	}
}

func TestHeartbeatKeepsLeaseFreshUntilCrash(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	opts := Options{TTL: 400 * time.Millisecond}
	a := openMgr(t, st, "a", opts)
	b := openMgr(t, st, "b", opts)

	if s, err := a.TryClaim("job/hb", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("a claim = %v, %v", s, err)
	}
	// Well past TTL: the heartbeat must have kept the lease un-stealable.
	time.Sleep(2 * opts.TTL)
	if s, err := b.TryClaim("job/hb", "h"); err != nil || s != campaign.ClaimBusy {
		t.Fatalf("b claim against heartbeating holder = %v, %v", s, err)
	}

	// A "crashes": heartbeat stops, lease goes stale, B steals.
	a.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := b.TryClaim("job/hb", "h")
		if err != nil {
			t.Fatal(err)
		}
		if s == campaign.ClaimRun {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never stole the stale lease (last state %v)", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rec, err := readLease(b.leasePath(st.Addr("job/hb", "h")))
	if err != nil || rec.Owner != "b" {
		t.Fatalf("stolen lease record = %+v, %v", rec, err)
	}
}

func TestStolenLeaseCountsAsLostNotReleased(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	opts := Options{TTL: 150 * time.Millisecond}
	a := openMgr(t, st, "a", opts)
	b := openMgr(t, st, "b", opts)
	if s, err := a.TryClaim("job/s", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("a claim = %v, %v", s, err)
	}
	a.Close() // renewal stops; the lease goes stale and B steals it
	time.Sleep(2 * opts.TTL)
	if s, err := b.TryClaim("job/s", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("b steal = %v, %v", s, err)
	}
	// A finishes anyway and releases: it must not remove B's lease.
	if err := a.Release("job/s", "h", false); err != nil {
		t.Fatal(err)
	}
	if a.Lost() != 1 {
		t.Errorf("a lost = %d, want 1", a.Lost())
	}
	if rec, err := readLease(b.leasePath(st.Addr("job/s", "h"))); err != nil || rec.Owner != "b" {
		t.Errorf("b's lease after a's release: %+v, %v", rec, err)
	}
}

func TestAuditRecordsExactlyOnceExecutions(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	a := openMgr(t, st, "a", Options{})
	b := openMgr(t, st, "b", Options{})
	complete := func(m *Manager, key string) {
		t.Helper()
		if s, err := m.TryClaim(key, "h"); err != nil || s != campaign.ClaimRun {
			t.Fatalf("%s claim %s = %v, %v", m.Owner(), key, s, err)
		}
		if err := st.Put(key, "h", []byte(key)); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(key, "h", true); err != nil {
			t.Fatal(err)
		}
	}
	complete(a, "job/1")
	complete(b, "job/2")
	complete(a, "job/3")

	audit, err := ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"job/1": {"a"}, "job/2": {"b"}, "job/3": {"a"}}
	if !reflect.DeepEqual(audit, want) {
		t.Errorf("audit = %v, want %v", audit, want)
	}
}

func TestMalformedLeaseIsStolenAsWreckage(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	m := openMgr(t, st, "w", Options{})
	path := m.leasePath(st.Addr("job/wreck", "h"))
	// Wreckage the complete-write discipline never produces: a torn or
	// foreign file squatting on the slot must not wedge the job forever.
	if err := os.WriteFile(path, []byte("not a lease"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := m.TryClaim("job/wreck", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("claim over wreckage = %v, %v", s, err)
	}
	rec, err := readLease(path)
	if err != nil || rec.Owner != "w" {
		t.Fatalf("lease after wreckage steal = %+v, %v", rec, err)
	}
}

func TestOpenRejectsBadOwners(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	for _, owner := range []string{"", "a/b", "a\\b", ".hidden", "a\tb", "a\nb"} {
		if _, err := Open(st, owner, Options{}); err == nil {
			t.Errorf("Open accepted owner %q", owner)
		}
	}
	if _, err := Open(nil, "ok", Options{}); err == nil {
		t.Error("Open accepted nil store")
	}
	if _, err := Open(st, "ok", Options{TTL: -1}); err == nil {
		t.Error("Open accepted negative TTL")
	}
	// A TTL so small its heartbeat (TTL/4) vanishes would make every live
	// lease stealable.
	if _, err := Open(st, "ok", Options{TTL: 3 * time.Nanosecond}); err == nil {
		t.Error("Open accepted a TTL too small to heartbeat under")
	}
}

// TestClaimRefusesKeysTheRecordsCannotCarry: a newline in a job key splits
// the lease record, which every other claimant then reads as wreckage and
// steals while its holder is alive, and a tab splits the holder's audit
// line. Such a key is refused with an error naming it, and no lease file
// is left for it.
func TestClaimRefusesKeysTheRecordsCannotCarry(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	a := openMgr(t, st, "a", Options{})
	b := openMgr(t, st, "b", Options{})
	for _, key := range []string{"job/1\nowner\tb", "job/2\tx", "job/3\n"} {
		for _, m := range []*Manager{a, b} {
			if s, err := m.TryClaim(key, "h"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", key)) {
				t.Errorf("%s: claim of %q = %v, %v; want an error naming the key", m.Owner(), key, s, err)
			}
		}
		if _, err := os.Stat(a.leasePath(st.Addr(key, "h"))); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%q: lease file left behind (%v)", key, err)
		}
	}
}

func TestConcurrentClaimantsSingleWinner(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	const workers = 8
	mgrs := make([]*Manager, workers)
	for i := range mgrs {
		mgrs[i] = openMgr(t, st, fmt.Sprintf("w%d", i), Options{})
	}
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("job/%d", round)
		var wg sync.WaitGroup
		wins := make([]int, workers)
		for i, m := range mgrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := m.TryClaim(key, "h")
				if err != nil {
					t.Error(err)
					return
				}
				if s == campaign.ClaimRun {
					wins[i] = 1
				}
			}()
		}
		wg.Wait()
		total := 0
		for _, w := range wins {
			total += w
		}
		if total != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, total)
		}
	}
}

// claimJob is a minimal checkpointable campaign job for protocol tests:
// it returns (and stores) a deterministic string and emits one row.
func claimJob(key string) campaign.Job {
	return campaign.Job{
		Key:  key,
		Hash: "h-" + key,
		Encode: func(v any) ([]byte, error) {
			return json.Marshal(v.(string))
		},
		Decode: func(ctx context.Context, data []byte) (any, error) {
			var s string
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, err
			}
			return s, campaign.Emit(ctx, key, results.Row{results.F("value", s)})
		},
		Run: func(ctx context.Context, _ map[string]any) (any, error) {
			v := "value-of-" + key
			return v, campaign.Emit(ctx, key, results.Row{results.F("value", v)})
		},
	}
}

// TestDistributedCampaignPartition is the protocol end to end: three
// concurrent campaign processes (simulated as goroutines with their own
// managers and sinks) share one store, execute every job exactly once in
// total, and each still observes the complete result and row set.
func TestDistributedCampaignPartition(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	const jobs, procs = 24, 3
	keys := make([]string, jobs)
	for i := range keys {
		keys[i] = fmt.Sprintf("grid/%02d", i)
	}

	var wg sync.WaitGroup
	sinks := make([]*results.MemorySink, procs)
	errs := make([]error, procs)
	values := make([][]campaign.Result, procs)
	for p := 0; p < procs; p++ {
		m := openMgr(t, st, fmt.Sprintf("w%d", p), Options{})
		sinks[p] = results.NewMemorySink()
		js := make([]campaign.Job, jobs)
		for i, k := range keys {
			js[i] = claimJob(k)
		}
		cfg := campaign.Config{
			Workers: 2, Store: st, Claimer: m, Sink: sinks[p],
			ClaimBackoff: time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			values[p], errs[p] = campaign.Run(context.Background(), cfg, js)
		}()
	}
	wg.Wait()

	for p := 0; p < procs; p++ {
		if errs[p] != nil {
			t.Fatalf("process %d: %v", p, errs[p])
		}
		if len(values[p]) != jobs {
			t.Fatalf("process %d: %d results", p, len(values[p]))
		}
		for i, r := range values[p] {
			if want := "value-of-" + keys[i]; r.Value != want {
				t.Errorf("process %d result %s = %v, want %v", p, r.Key, r.Value, want)
			}
		}
		// Byte-consistent sinks: every process replayed what it did not run.
		for _, k := range keys {
			rows := sinks[p].Rows(k)
			if len(rows) != 1 || rows[0][0].Value != "value-of-"+k {
				t.Errorf("process %d rows for %s = %v", p, k, rows)
			}
		}
	}

	// The audit proves the partition: every key executed exactly once,
	// across all owners together.
	audit, err := ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	var audited []string
	for k, owners := range audit {
		if len(owners) != 1 {
			t.Errorf("key %s executed %d times by %v", k, len(owners), owners)
		}
		audited = append(audited, k)
	}
	sort.Strings(audited)
	if !reflect.DeepEqual(audited, keys) {
		t.Errorf("audited keys %v, want %v", audited, keys)
	}
}

// TestCampaignStealsFromCrashedProcess kills a simulated worker mid-grid:
// its manager claimed a job and stopped heartbeating without releasing.
// A second worker must steal the stale lease and finish the whole grid.
func TestCampaignStealsFromCrashedProcess(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	opts := Options{TTL: 150 * time.Millisecond}

	crashed, err := Open(st, "crashed", opts)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := crashed.TryClaim("grid/00", "h-grid/00"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("crashed claim = %v, %v", s, err)
	}
	crashed.Close() // heartbeat stops; the lease will go stale

	survivor := openMgr(t, st, "survivor", opts)
	sink := results.NewMemorySink()
	keys := []string{"grid/00", "grid/01", "grid/02"}
	js := make([]campaign.Job, len(keys))
	for i, k := range keys {
		js[i] = claimJob(k)
	}
	cfg := campaign.Config{
		Workers: 2, Store: st, Claimer: survivor, Sink: sink,
		ClaimBackoff: 10 * time.Millisecond,
	}
	res, err := campaign.Run(context.Background(), cfg, js)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := "value-of-" + keys[i]; r.Value != want {
			t.Errorf("result %s = %v", r.Key, r.Value)
		}
	}
	audit, err := ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if owners := audit[k]; !reflect.DeepEqual(owners, []string{"survivor"}) {
			t.Errorf("key %s executed by %v, want survivor only", k, owners)
		}
	}
}

func TestReadAuditEmptyWithoutLeaseDir(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	audit, err := ReadAudit(st)
	if err != nil || len(audit) != 0 {
		t.Fatalf("audit = %v, %v", audit, err)
	}
}

func TestLeaseFilesLiveUnderStoreDir(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	m := openMgr(t, st, "w", Options{})
	if s, err := m.TryClaim("job/x", "h"); err != nil || s != campaign.ClaimRun {
		t.Fatalf("claim = %v, %v", s, err)
	}
	// The lease lives in <store>/leases and does not disturb the store's
	// entry count.
	if _, err := os.Stat(filepath.Join(st.Dir(), dirName)); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("store len with held lease = %d, %v", n, err)
	}
	// No stray temp files remain from claims.
	entries, err := os.ReadDir(filepath.Join(st.Dir(), dirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".claim-") || strings.HasPrefix(e.Name(), ".reap-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestReadAuditEntriesRejectsTornLines: every audit line is written whole,
// so a short line, a line cut before its newline or a timing that does not
// parse is damage, reported with the file and line instead of read as an
// execution with zero timings.
func TestReadAuditEntriesRejectsTornLines(t *testing.T) {
	t.Parallel()
	const good = "job/1\t1500.000\t2000000\n"
	for _, tc := range []struct{ name, log, want string }{
		{"short line", good + "job/2\t1500.000\n", "audit-w1.log line 2"},
		{"key only", "job/2\n" + good, "audit-w1.log line 1"},
		{"no newline", good + "job/2\t1500.000\t20", "audit-w1.log line 2"},
		{"bad elapsed", good + good + "job/3\tx\t2000000\n", "audit-w1.log line 3: strconv.ParseFloat"},
		{"bad end", "job/3\t1.5\t2e6\n", "audit-w1.log line 1: strconv.ParseInt"},
		{"extra field", "job/3\t1.5\t2000000\tz\n", "audit-w1.log line 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t)
			dir := filepath.Join(st.Dir(), dirName)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "audit-w1.log"), []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			execs, err := ReadAuditEntries(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadAuditEntries = %+v, %v; want an error containing %q", execs, err, tc.want)
			}
			if _, err := ReadAudit(st); err == nil {
				t.Error("ReadAudit accepted the torn log")
			}
		})
	}

	st := openStore(t)
	dir := filepath.Join(st.Dir(), dirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "audit-w1.log"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	execs, err := ReadAuditEntries(st)
	want := []obs.OwnerExec{{Owner: "w1", Key: "job/1", ElapsedUS: 1500, EndUnixNS: 2_000_000}}
	if err != nil || !reflect.DeepEqual(execs, want) {
		t.Errorf("ReadAuditEntries = %+v, %v; want %+v", execs, err, want)
	}
}

// FuzzLeaseRecord holds parseLease to two properties: it is formatLease's
// exact inverse on every record formatLease can write (a non-empty owner,
// no newline in any field), and on arbitrary bytes it either parses or
// returns an error wrapping errMalformed, never panicking.
func FuzzLeaseRecord(f *testing.F) {
	// Seeds: the records the tests above write, and the wreckage one.
	f.Add("w", "job/wreck", "h", int64(1_700_000_000_000_000_000), []byte("not a lease"))
	f.Add("survivor", "job/1", "h", int64(0), []byte(formatLease(record{Owner: "a", Key: "job/hb", Hash: "h", Beat: time.Unix(0, 42)})))
	f.Add("b", "job/s", "", int64(-1), []byte("owner\tb\nbeat\tx\n"))
	f.Fuzz(func(t *testing.T, owner, key, hash string, beat int64, raw []byte) {
		if owner != "" && !strings.Contains(owner+key+hash, "\n") {
			r := record{Owner: owner, Key: key, Hash: hash, Beat: time.Unix(0, beat)}
			got, err := parseLease([]byte(formatLease(r)))
			if err != nil || got != r {
				t.Errorf("parseLease(formatLease(%+v)) = %+v, %v", r, got, err)
			}
		}
		r, err := parseLease(raw)
		switch {
		case err != nil && !errors.Is(err, errMalformed):
			t.Errorf("parseLease(%q) error %v does not wrap errMalformed", raw, err)
		case err == nil && r.Owner == "":
			t.Errorf("parseLease(%q) accepted a record with no owner", raw)
		}
	})
}

// FuzzAuditLine: parseAuditLine either errors or parses any line, and a
// line written as appendAudit writes it, for a key with no tab or newline
// (TryClaim refuses the others), reads back with the same key, elapsed
// time to the nanosecond (for holds under three days) and end time.
func FuzzAuditLine(f *testing.F) {
	// Seeds: the lines a real claim and release write, then torn ones.
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, err := Open(st, "w1", Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer m.Close()
	for _, key := range []string{"job/1", "p3/eth/c128kB/r0 \u2028"} {
		if s, err := m.TryClaim(key, "h"); err != nil || s != campaign.ClaimRun {
			f.Fatalf("claim = %v, %v", s, err)
		}
		if err := m.Release(key, "h", true); err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(st.Dir(), dirName, "audit-w1.log"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.SplitAfter(string(data), "\n") {
		f.Add(line, "job/1", int64(1_500_000), int64(2_000_000))
	}
	f.Add("job/2\t1500.000\n", "", int64(0), int64(-1))
	f.Add("job/3\t1.5\t2e6\n", "a\rb", int64(1)<<52, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, line, key string, elapsedNS, endNS int64) {
		if e, err := parseAuditLine(line); err == nil && (strings.Count(line, "\t") != 2 || !strings.HasSuffix(line, "\n") || e.Key != line[:strings.IndexByte(line, '\t')]) {
			t.Errorf("parseAuditLine(%q) = %+v, not a key and two timings", line, e)
		}
		if strings.ContainsAny(key, "\t\n") || elapsedNS < 0 || elapsedNS >= 1<<48 {
			return // keys TryClaim refuses; holds of days, past nanosecond resolution in float64 microseconds
		}
		w := auditLine(key, time.Duration(elapsedNS), time.Unix(0, endNS))
		e, err := parseAuditLine(w)
		if err != nil || e.Key != key || int64(math.Round(e.ElapsedUS*1e3)) != elapsedNS || e.EndUnixNS != endNS {
			t.Errorf("parseAuditLine(%q) = %+v, %v; want key %q, %d ns elapsed, end %d", w, e, err, key, elapsedNS, endNS)
		}
	})
}
