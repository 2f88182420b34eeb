package main

import (
	"strings"
	"testing"
)

// TestRunSwitches pins the example's point: the run starts on the primary,
// its measured times violate the expectation for a sustained window, and
// the assembly ends the run on the fallback.
func TestRunSwitches(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasSuffix(first, "switched=false") {
		t.Errorf("first patch already switched: %q", first)
	}
	if !strings.HasSuffix(out.String(), "switched=true\n\nexpectation violated for a sustained window: the assembly now runs EFMFlux\n") {
		t.Errorf("run did not end switched=true on EFMFlux:\n%s", out.String())
	}
}
