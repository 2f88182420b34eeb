package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestFailedRunKeepsItsEvidence drives run with a mesh the application
// rejects after start-up (the 24x12 tiles do not divide a 16x8 base): the
// error must come back, and the trace and the CPU profile of the broken
// run must still be written.
func TestFailedRunKeepsItsEvidence(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	prof := filepath.Join(dir, "cpu.prof")
	o, err := resolveFlags([]string{"-nx", "16", "-ny", "8", "-trace", trace, "-cpuprofile", prof})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Fatal("run accepted a 16x8 base mesh")
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

// TestBadFlagStartsNothing: a value no run can use is rejected with the
// other flags, before a profile file exists.
func TestBadFlagStartsNothing(t *testing.T) {
	for _, bad := range [][]string{{"-flux", "nope"}, {"-procs", "0"}, {"-procs", "-3"}, {"-axis", "ranks"}, {"-rankmode", "warp"}, {"-distributed"}} {
		dir := t.TempDir()
		if _, err := resolveFlags(append(bad, "-cpuprofile", filepath.Join(dir, "x.prof"))); err == nil {
			t.Errorf("resolveFlags accepted %v", bad)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("resolveFlags %v created %s", bad, entries[0].Name())
		}
	}
}
