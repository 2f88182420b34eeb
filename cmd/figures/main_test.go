package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
