package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
		{"trendreps", []string{"-trendreps", "-1"}, "-trendreps -1"},
		{"trendvalues no cache", []string{"-fig", "trend", "-trendvalues", "0"}, `scenario "p3/base/c0kB/r0"`},
		{"trendvalues impossible cache", []string{"-fig", "trend", "-trendvalues", "100"}, "set count 200 not a power of two"},
		{"trendvalues bad clock", []string{"-fig", "trend", "-axis", "cpu_clock", "-trendvalues", "NaN,-1"}, `scenario "p3/base/c512kB/cpuNaNx/r0": mpi: invalid world config: CPU.ClockGHz NaN`},
		{"trendvalues no clock", []string{"-fig", "trend", "-axis", "cpu_clock", "-trendvalues", "0"}, `scenario "p3/base/c512kB/cpu0x/r0": mpi: invalid world config: CPU.ClockGHz 0`},
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
