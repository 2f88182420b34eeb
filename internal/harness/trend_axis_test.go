package harness

import (
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestTrendAxisTable ranges over the axis table: every row resolves by
// name, sweeps its defaults into the scenarios CacheAxis/CPUClockAxis have
// always produced (two keys pinned per row: keys name shards and derive
// seeds), and reads each default back off its scenario. Everything that is
// not a row is rejected with the one message naming the rows.
func TestTrendAxisTable(t *testing.T) {
	t.Parallel()
	pinned := map[string][2]string{
		"cache_kb":  {"p3/base/c128kB/r0", "p3/base/c1024kB/r0"},
		"cpu_clock": {"p3/base/c512kB/cpu0.5x/r0", "p3/base/c512kB/cpu4x/r0"},
	}
	if len(trendAxes) != len(pinned) {
		t.Fatalf("%d table rows, %d pinned", len(trendAxes), len(pinned))
	}
	for _, row := range trendAxes {
		got, err := TrendAxisNamed(row.Name)
		if err != nil || got.Name != row.Name || got.Col != row.Col || got.Var != row.Var || got.Desc != row.Desc {
			t.Errorf("TrendAxisNamed(%q) = %+v, %v", row.Name, got, err)
		}
		dim, err := row.Dimension(row.Defaults)
		if err != nil {
			t.Fatalf("%s: Dimension(defaults): %v", row.Name, err)
		}
		scs, err := campaign.Grid{
			Base: DefaultSweep(KernelStates).World, Axes: []campaign.Dimension{dim}, BaseSeed: 1,
		}.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) != len(row.Defaults) {
			t.Fatalf("%s: %d scenarios for %d defaults", row.Name, len(scs), len(row.Defaults))
		}
		for i, sc := range scs {
			if v, ok := row.Value(sc); !ok || v != row.Defaults[i] {
				t.Errorf("%s: Value(%s) = %g, %v; want %g", row.Name, sc.Key, v, ok, row.Defaults[i])
			}
		}
		if want := pinned[row.Name]; scs[0].Key != want[0] || scs[len(scs)-1].Key != want[1] {
			t.Errorf("%s: keys %s .. %s, want %s .. %s", row.Name, scs[0].Key, scs[len(scs)-1].Key, want[0], want[1])
		}
	}

	// The empty name is the first row, as the -axis flag documents.
	if got, err := TrendAxisNamed(""); err != nil || got.Name != "cache_kb" {
		t.Errorf(`TrendAxisNamed("") = %q, %v; want the cache_kb row`, got.Name, err)
	}
	for _, name := range []string{"ranks", "mesh_cells", "axis:x", "cache", "CACHE_KB"} {
		_, err := TrendAxisNamed(name)
		if err == nil || !strings.Contains(err.Error(), "cache_kb or cpu_clock") {
			t.Errorf("TrendAxisNamed(%q): %v, want the table-derived rejection", name, err)
		}
	}
	// A cache size is a whole number of kB; the error names the flag.
	if _, err := TrendCacheKB.Dimension([]float64{128, 192.5}); err == nil || !strings.Contains(err.Error(), "-trendvalues 192.5") {
		t.Errorf("fractional cache_kb value: %v", err)
	}
}
