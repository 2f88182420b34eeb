package lint

import (
	"path/filepath"
	"testing"
)

func TestWallclockFixture(t *testing.T) {
	diags := runFixture(t, Wallclock, filepath.Join("wallclock", "a"))
	if got := countSuppressed(diags); got < 1 {
		t.Errorf("wallclock fixture: want at least 1 suppressed diagnostic (the Allowed func), got %d", got)
	}
}

func TestWallclockClean(t *testing.T) {
	runFixture(t, Wallclock, filepath.Join("wallclock", "clean"))
}

func TestMapiterFixture(t *testing.T) {
	runFixture(t, Mapiter, filepath.Join("mapiter", "a"))
}

func TestMapiterClean(t *testing.T) {
	runFixture(t, Mapiter, filepath.Join("mapiter", "clean"))
}

// TestRepoClean is the repository's static determinism gate (tier-1 runs
// it everywhere; there is no second front door): the module itself must
// carry zero unsuppressed diagnostics from the suite — which also proves
// every //repolint:allow directive parses and names a live analyzer,
// bench/clock.go's included. The allowlist is audited here too: every
// suppressed finding is a wall-clock site, and adding one means changing
// the count below on purpose.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unsuppressed: %s", d)
	}
	const allowedWallclock = 28 // lease heartbeats, obs clocks, owner ids, bench fingerprints
	for _, d := range diags {
		if d.Suppressed && d.Analyzer != Wallclock.Name {
			t.Errorf("suppressed %s finding (only wall-clock sites are allowlisted): %s", d.Analyzer, d)
		}
	}
	if got := countSuppressed(diags); got != allowedWallclock {
		t.Errorf("allowlist has %d suppressed wallclock findings, want %d", got, allowedWallclock)
	}
}
