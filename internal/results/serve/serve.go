// Package serve is the results-as-a-service query tier: it loads a
// finished campaign's rows directory (the CSV shards and/or their binary
// siblings a shard sink left behind) and answers model-prediction, trend
// and scenario-lookup queries over HTTP — "what would this app do on that
// machine", served from fitted performance models instead of re-running a
// simulation.
//
// The design target is the inverse of the campaign engine's: thousands of
// expensive simulations were already paid for; millions of cheap reads
// follow. A scenario's shard is decoded and its models fitted at most
// once per cache residency — queries go through a read-through cache
// (singleflight-deduplicated loads, LRU over decoded scenarios) and every
// load, hit, miss and query latency is counted in the internal/obs
// registry the service exposes at /metrics.
//
// Serving is read-only and deterministic: the service never writes to the
// campaign directory, and identical shard bytes produce byte-identical
// JSON responses for identical queries — the HTTP layer renders through
// ordered structs, never map iteration, and the fitted coefficients are a
// pure function of the decoded rows.
//
// Two interchangeable PerformanceModel backends answer predictions (the
// dcs-eesim shape: measures by category, backends swappable per query):
// "fitted" evaluates the regression models (univariate mean and sigma
// fits in the paper's form when the scenario names its kernel, else
// AIC-best, plus a multilinear fit over array size and cache misses
// when the telemetry carries them), "queue" treats the measured kernel as
// an M/M/1 server and answers open-system response time, utilization and
// throughput from the interpolated service demand. See doc.go "Results
// service" and docs/resultsd-api.md for the HTTP contract.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/perfmodel"
)

// Coord is one parsed numeric coordinate of a scenario: a grid axis name
// and the scenario's value on it.
type Coord struct {
	Axis  string  `json:"axis"`
	Value float64 `json:"value"`
}

// Scenario is one servable grid scenario discovered in the rows
// directory. Name is the shard stem (the campaign scenario key with "/"
// sanitized to "_" and the sink's hash suffix stripped); Coords holds the
// numeric axis values recovered from the key's tokens; Tags collects the
// remaining tokens (kernel names and user-defined axis keys such as
// "states" or "lat2x") for exact-match lookup.
type Scenario struct {
	Name string `json:"name"`
	// File is the shard path on disk; it is serving detail, not part of
	// the JSON contract (responses must not depend on where the campaign
	// directory happens to live).
	File   string   `json:"-"`
	Format string   `json:"format"`
	Coords []Coord  `json:"coords"`
	Tags   []string `json:"tags,omitempty"`
	// kernel is the one tag that names a kernel perfmodel fits the paper's
	// model forms for, or "" when no tag or more than one does.
	kernel string
	// listed is the scenario's element of a /scenarios body, rendered
	// once by Open: the catalog cannot change after it is opened.
	listed []byte
}

// Coord returns the scenario's value on an axis.
func (s *Scenario) Coord(axis string) (float64, bool) {
	for _, c := range s.Coords {
		if c.Axis == axis {
			return c.Value, true
		}
	}
	return 0, false
}

// HasTag reports whether the scenario carries the exact token.
func (s *Scenario) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Catalog is the discovered scenario set of one campaign rows directory.
type Catalog struct {
	dir       string
	scenarios []*Scenario
	byName    map[string]*Scenario
	axes      []string
}

// coordTokens mirror the campaign axis keys "p3" (ranks), "c512kB"
// (cache_kb), "cpu1.5x" (cpu_clock) and "r0" (replication), each number
// spelled as the axis prints it (%d for counts, %g for the clock scale).
var coordTokens = []struct {
	axis string
	re   *regexp.Regexp
	fmt  byte // strconv.AppendFloat format that spells the number back
}{
	{"ranks", regexp.MustCompile(`^p(\d+)$`), 'f'},
	{"cache_kb", regexp.MustCompile(`^c(\d+)kB$`), 'f'},
	{"cpu_clock", regexp.MustCompile(`^cpu(\d+(?:\.\d+)?)x$`), 'g'},
	{"rep", regexp.MustCompile(`^r(\d+)$`), 'f'},
}

// Open scans a campaign rows directory into a catalog. dir may be the
// rows directory itself or a campaign output directory containing a
// "rows" subdirectory. When a scenario exists in both formats the binary
// shard is served (identical logical rows, cheaper decode).
func Open(dir string) (*Catalog, error) {
	// A "rows" subdirectory with shards always wins: a campaign output
	// directory's own top-level CSVs (trend.csv, figure tables) are
	// rendered reports, not row shards.
	if fi, err := os.Stat(filepath.Join(dir, "rows")); err == nil && fi.IsDir() {
		if has, _ := dirHasShards(filepath.Join(dir, "rows")); has {
			dir = filepath.Join(dir, "rows")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	c := &Catalog{dir: dir, byName: map[string]*Scenario{}}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		ext := filepath.Ext(name)
		if ext != ".csv" && ext != ".bin" {
			continue
		}
		stem := shardStem(strings.TrimSuffix(name, ext))
		format := strings.TrimPrefix(ext, ".")
		if prev, ok := c.byName[stem]; ok {
			// Prefer the binary sibling; the logical rows are identical.
			if format == "bin" {
				prev.File, prev.Format = filepath.Join(dir, name), "bin"
			}
			continue
		}
		sc := parseScenario(stem)
		sc.File = filepath.Join(dir, name)
		sc.Format = format
		c.byName[stem] = sc
		c.scenarios = append(c.scenarios, sc)
	}
	if len(c.scenarios) == 0 {
		return nil, fmt.Errorf("serve: no row shards under %s", dir)
	}
	sort.Slice(c.scenarios, func(i, j int) bool { return c.scenarios[i].Name < c.scenarios[j].Name })
	seen := map[string]bool{}
	for _, sc := range c.scenarios {
		for _, co := range sc.Coords {
			if !seen[co.Axis] {
				seen[co.Axis] = true
				c.axes = append(c.axes, co.Axis)
			}
		}
		// The indentation a list element sits at in the body (see
		// scenarioList), so the assembled body is what one MarshalIndent of
		// the whole response would print.
		if sc.listed, err = json.MarshalIndent(sc, "    ", "  "); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	sort.Strings(c.axes)
	return c, nil
}

// dirHasShards reports whether dir itself contains shard files (in which
// case a "rows" subdirectory is not consulted).
func dirHasShards(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".csv", ".bin":
			return true, nil
		}
	}
	return false, nil
}

// shardStem strips the sink's "-<8 hex>" disambiguation suffix when
// present: the campaign keys contain "/", so sanitization always appended
// one.
func shardStem(stem string) string {
	if i := strings.LastIndex(stem, "-"); i > 0 && len(stem)-i-1 == 8 {
		if _, err := strconv.ParseUint(stem[i+1:], 16, 32); err == nil {
			return stem[:i]
		}
	}
	return stem
}

// parseScenario recovers coordinates from a scenario name's "_"-separated
// key tokens. Unrecognized tokens become tags; tokens from user-defined
// axes whose keys themselves contain "_" split into several tags (the
// documented limitation of serving from sanitized shard names).
func parseScenario(stem string) *Scenario {
	sc := &Scenario{Name: stem}
	for _, tok := range strings.Split(stem, "_") {
		if axis, v, ok := parseCoord(tok); ok {
			sc.Coords = append(sc.Coords, Coord{Axis: axis, Value: v})
		} else {
			sc.Tags = append(sc.Tags, tok)
		}
	}
	sort.Slice(sc.Coords, func(i, j int) bool { return sc.Coords[i].Axis < sc.Coords[j].Axis })
	for _, tag := range sc.Tags {
		if perfmodel.IsKernel(tag) {
			if sc.kernel != "" {
				sc.kernel = ""
				break
			}
			sc.kernel = tag
		}
	}
	return sc
}

// parseCoord reads a coordinate token. A number in any other spelling than
// the axis's is not a coordinate, so it never reads as a different value.
func parseCoord(tok string) (axis string, v float64, ok bool) {
	for _, ct := range coordTokens {
		if m := ct.re.FindStringSubmatch(tok); m != nil {
			var buf [32]byte // spells v back without allocating
			v, err := strconv.ParseFloat(m[1], 64)
			return ct.axis, v, err == nil && string(strconv.AppendFloat(buf[:0], v, ct.fmt, -1, 64)) == m[1]
		}
	}
	return "", 0, false
}

// Dir returns the catalog's rows directory.
func (c *Catalog) Dir() string { return c.dir }

// Scenarios returns every discovered scenario, sorted by name.
func (c *Catalog) Scenarios() []*Scenario { return c.scenarios }

// Lookup returns a scenario by exact name.
func (c *Catalog) Lookup(name string) (*Scenario, bool) {
	sc, ok := c.byName[name]
	return sc, ok
}

// Axes returns the sorted union of coordinate axes across scenarios. The
// slice is the catalog's own; callers must not modify it.
func (c *Catalog) Axes() []string { return c.axes }

// Filter is a conjunctive scenario predicate: every set field must match.
type Filter struct {
	// Name, when non-empty, selects the single exactly-named scenario.
	Name string
	// Coords matches numeric coordinates exactly, axis by axis.
	Coords []Coord
	// Tags must all be present.
	Tags []string
}

// Match returns the scenarios satisfying the filter, in name order.
func (c *Catalog) Match(f Filter) []*Scenario {
	var out []*Scenario
	for _, sc := range c.scenarios {
		if f.Name != "" && sc.Name != f.Name {
			continue
		}
		ok := true
		for _, want := range f.Coords {
			v, has := sc.Coord(want.Axis)
			if !has || v != want.Value {
				ok = false
				break
			}
		}
		for _, tag := range f.Tags {
			if !sc.HasTag(tag) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, sc)
		}
	}
	return out
}
