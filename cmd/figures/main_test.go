package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/results/serve"
	"repro/internal/results/store"
)

// TestResolveFlags pins the contract main's first line relies on: a flag
// value no run can use is rejected with a message naming the flag, and
// neither a rejected nor an accepted command line touches the disk —
// no output directory, no cleared rows/, no store.
func TestResolveFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring; "" = accepted
	}{
		{"rowformat", []string{"-rowformat", "typo"}, `-rowformat "typo"`},
		{"fig out of range", []string{"-fig", "11"}, `-fig "11"`},
		{"fig zero", []string{"-fig", "0"}, `-fig "0"`},
		{"distributed with default cache", []string{"-distributed"}, "-distributed needs one store"},
		{"distributed with cache off", []string{"-distributed", "-cache", "off"}, "-distributed needs one store"},
		{"axis", []string{"-axis", "ranks"}, "-axis:"},
		{"trendvalues syntax", []string{"-trendvalues", "1,x"}, "-trendvalues:"},
		{"trendvalues off the axis", []string{"-axis", "cache_kb", "-trendvalues", "1.5"}, "whole number of kB"},
		{"rankmode", []string{"-rankmode", "warp"}, "-rankmode:"},
		{"procs", []string{"-fig", "3", "-procs", "0"}, "-procs: mpi: invalid world config: Procs 0"},
		{"reps", []string{"-reps", "0"}, "-reps 0"},
		{"trendvalues no cache", []string{"-fig", "trend", "-trendvalues", "0"}, `scenario "p3/base/c0kB/states/r0"`},
		{"trendvalues impossible cache", []string{"-fig", "trend", "-trendvalues", "100"}, "set count 200 not a power of two"},
		{"trendvalues bad clock", []string{"-fig", "trend", "-axis", "cpu_clock", "-trendvalues", "NaN,-1"}, `scenario "p3/base/c512kB/cpuNaNx/states/r0": mpi: invalid world config: CPU.ClockGHz NaN`},
		{"trendvalues no clock", []string{"-fig", "trend", "-axis", "cpu_clock", "-trendvalues", "0"}, `scenario "p3/base/c512kB/cpu0x/states/r0": mpi: invalid world config: CPU.ClockGHz 0`},
		{"accepted", []string{"-fig", "trend", "-axis", "cpu_clock", "-trendvalues", "1,2", "-rankmode", "par8", "-rowformat", "both", "-distributed", "-cache", "shared-store"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out")
			args := append([]string{"-out", out}, tc.args...)
			o, err := resolveFlags(args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("resolveFlags created %s", entries[0].Name())
			}
			if err != nil {
				return
			}
			if o.fig != "trend" || o.trendAxis.Name != "cpu_clock" || len(o.trendValues) != 2 ||
				o.rankCap != 8 || o.rowfmt != "both" || o.cache != "shared-store" {
				t.Errorf("resolved options = %+v", *o)
			}
		})
	}
}

// TestDefaultCacheFollowsOut checks the one derived default: "auto"
// resolves to <out>/.cache.
func TestDefaultCacheFollowsOut(t *testing.T) {
	o, err := resolveFlags([]string{"-out", "somewhere"})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("somewhere", ".cache"); o.cache != want {
		t.Errorf("cache = %q, want %q", o.cache, want)
	}
}

// TestFailedRunKeepsItsEvidence drives run into a failure after start-up
// (a regular file sits where the store directory should go): the error
// must come back, and the trace and the CPU profile of the broken run must
// still be written.
func TestFailedRunKeepsItsEvidence(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "t.json")
	prof := filepath.Join(dir, "cpu.prof")
	o, err := resolveFlags([]string{"-fig", "2", "-out", filepath.Join(dir, "out"),
		"-cache", filepath.Join(blocker, "store"), "-trace", trace, "-cpuprofile", prof})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Fatal("run opened a store under a regular file")
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("no trace of the failed run: %v", err)
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(tf); err != nil {
		t.Error(err)
	}
	if st, err := os.Stat(prof); err != nil {
		t.Error(err)
	} else if st.Size() == 0 {
		t.Error("CPU profile of the failed run is empty")
	}
}

// readTree returns every file under dir as relative path -> content.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmStoreMatchesCold is the checkpoint contract end to end: a run
// over a store another run filled writes the same output directory, rows/
// included, as that run and as a run with no store at all. The store holds
// only what the simulator measured — Fig. 6's one sweep, not its fit or
// its rendered files — and the warm run takes that sweep from it.
func TestWarmStoreMatchesCold(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	figure := func(out, cache string, extra ...string) map[string]string {
		t.Helper()
		args := append([]string{"-fig", "6", "-reps", "1", "-procs", "1", "-out", filepath.Join(dir, out), "-cache", cache}, extra...)
		o, err := resolveFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, io.Discard); err != nil {
			t.Fatal(err)
		}
		return readTree(t, filepath.Join(dir, out))
	}
	cold := figure("cold", "off")
	first := figure("first", storeDir)
	metrics := filepath.Join(dir, "metrics.txt")
	warm := figure("warm", storeDir, "-metricsdump", metrics)

	if len(cold) < 3 || cold["fig6.csv"] == "" {
		t.Fatalf("cold run wrote %d files, no fig6.csv", len(cold))
	}
	for name, got := range map[string]map[string]string{"first": first, "warm": warm} {
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%s run's output directory differs from the run without a store", name)
		}
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("store holds %d entries (err %v), want 1: the sweep", n, err)
	}
	dump, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "campaign_jobs_cached_total 1\n") {
		t.Errorf("warm run did not take the sweep from the store:\n%s", dump)
	}
}

// TestServedTrendMatchesTrendCSV: resultsd over a trend run's rows/ serves
// the coefficients trend.csv reports, bit for bit. Every shard key names
// its kernel, so the served mean model is the paper's power law the figure
// fits, and one replication per cache size leaves nothing to average.
func TestServedTrendMatchesTrendCSV(t *testing.T) {
	out := t.TempDir()
	o, err := resolveFlags([]string{"-fig", "trend", "-reps", "1", "-procs", "1",
		"-trendvalues", "128,1024", "-cache", "off", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(out, "trend.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{} // "<cache_kb> <coeff>" -> value
	for _, rec := range records[1:] {
		v, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		want[rec[1]+" "+rec[3]] = v
	}

	svc, err := serve.New(filepath.Join(out, "rows"), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trend?axis=cache_kb", nil))
	var got struct {
		Series []struct {
			Model, Coefficient string
			Points             []struct{ X, Value float64 }
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("status %d: %v", rec.Code, err)
	}
	n := 0
	for _, ts := range got.Series {
		if ts.Model != "mean" {
			continue
		}
		for _, p := range ts.Points {
			key := strconv.FormatFloat(p.X, 'g', -1, 64) + " " + ts.Coefficient
			w, ok := want[key]
			if !ok || p.Value != w {
				t.Errorf("/trend mean %s = %v; trend.csv has %v (present %v)", key, p.Value, w, ok)
			}
			n++
		}
	}
	if n != len(want) {
		t.Errorf("/trend served %d mean points, trend.csv has %d values", n, len(want))
	}
}
