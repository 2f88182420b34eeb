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

func TestLockioFixture(t *testing.T) {
	diags := runFixture(t, Lockio, filepath.Join("lockio", "a"))
	if got := countSuppressed(diags); got < 1 {
		t.Errorf("lockio fixture: want at least 1 suppressed diagnostic (the Allowed func), got %d", got)
	}
}

func TestLockioClean(t *testing.T) {
	runFixture(t, Lockio, filepath.Join("lockio", "clean"))
}

func TestObscaptureFixture(t *testing.T) {
	diags := runFixture(t, Obscapture, "obscapture")
	if got := countSuppressed(diags); got < 1 {
		t.Errorf("obscapture fixture: want at least 1 suppressed diagnostic (ConstructionLoop), got %d", got)
	}
}

func TestPkgdocFixture(t *testing.T) {
	diags := runFixture(t, Pkgdoc, filepath.Join("pkgdoc", "a"))
	if got := countSuppressed(diags); got < 1 {
		t.Errorf("pkgdoc fixture: want at least 1 suppressed diagnostic (package sub), got %d", got)
	}
}

func TestPkgdocClean(t *testing.T) {
	runFixture(t, Pkgdoc, filepath.Join("pkgdoc", "clean"))
}

// TestRepoClean is the gate the CI lint job enforces, as a unit test:
// the repository itself must carry zero unsuppressed diagnostics from
// the full suite. Every allowed finding stays visible in -json output.
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
	if countSuppressed(diags) == 0 {
		t.Error("expected the documented allowlist (lease heartbeats, obs clocks, bench fingerprints) to register as suppressed diagnostics")
	}
}
