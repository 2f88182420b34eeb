package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRun executes the whole example in a scratch directory and pins the
// lines that state its guarantees — grid size, distinct measurements,
// lease audit — and the files cmd/resultsd and CI's serve job feed on. Elapsed
// times and settle order are host timing and are not asserted.
func TestRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign-out")
	var out strings.Builder
	if err := run(&out, dir); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"campaign: 8 scenarios on ",
		"8 distinct measurements of 8 scenarios",
		"audit: 4 scenarios executed, 0 duplicates; both workers' trend reports byte-identical",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(tf); err != nil {
		t.Error(err)
	}
	for _, ext := range []string{".csv", ".bin"} {
		shards, err := filepath.Glob(filepath.Join(dir, "rows", "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 8 {
			t.Errorf("%d %s shards under rows/, want one per scenario (8)", len(shards), ext)
		}
	}
}
