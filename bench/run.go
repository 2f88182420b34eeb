package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a run hands its workload.
type env struct {
	seed    int64
	seconds float64
	// rec is nil unless the run is traced.
	rec *recorder
	// dir is the run's private scratch directory.
	dir string
	// golden holds the expected digests for seed 1; other seeds run the
	// cross-checks only.
	golden map[string]string
	// digests collects every digest the run computed, for -update-golden.
	digests map[string]string
	// probes sizes the per-layer probes of a traced run.
	probes probeShape
}

// checkDigest records a digest and compares it with the golden one when
// the golden file has an entry under that name. It returns false on a
// mismatch.
func (e *env) checkDigest(name, digest string) bool {
	e.digests[name] = digest
	want, ok := e.golden[name]
	return !ok || want == digest
}

// passResult is one pass over a workload's fixed batch of operations.
type passResult struct {
	wallS float64
	// latMS holds one latency per operation.
	latMS []float64
	// attempted counts operations and output checks, failed the ones
	// that erred or did not match.
	attempted, failed int
	// notes describe each failure, for the operator.
	notes []string
}

func (p *passResult) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// instance is a workload that has been set up.
type instance interface {
	// setup builds what the passes need; its time is setup_s.
	setup() error
	// warm runs whatever the first pass would otherwise pay once; it is
	// counted neither as set-up nor as measured work.
	warm() error
	// pass runs the batch once. An error is a broken benchmark, not a
	// failed operation: the run stops.
	pass(i int) (passResult, error)
	// derived adds the per-layer metrics read off the traced passes; m
	// already holds the probes' values, for composing a budget.
	derived(m map[string]float64) error
	close() error
}

// workload makes instances. An instance is made and set up several times
// in a run and set-up time reported as the median: at least minSetups times, and for
// set-ups of milliseconds until setupBudgetS have been spent, so that a
// short set-up's median rests on many samples. Five rather than three
// because the serving set-ups write a thousand files and the filesystem
// runs in slow and fast streaks: a median of five survives two slow ones.
type workload struct {
	name string
	make func(e *env) instance
}

const (
	minSetups    = 5
	maxSetups    = 200
	setupBudgetS = 0.5
	minPasses    = 3
)

// measure runs one workload: set-up (timed, repeated), warm-up, then
// passes until e.seconds have elapsed. It returns the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one.
func measure(w workload, e *env) (result, error) {
	var inst instance
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudgetS && len(setups) < maxSetups); spent += setups[len(setups)-1] {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := now()
		inst = w.make(e)
		if err := inst.setup(); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, since(t0))
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return result{}, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	e.rec.reset()

	res := result{Metrics: map[string]metric{}}
	var walls, allocs, lat []float64
	start := now()
	for i := 0; i < minPasses || since(start) < e.seconds; i++ {
		before := totalAllocMB()
		e.rec.push("bench", "pass", 0)
		pr, err := inst.pass(i)
		e.rec.pop()
		if err != nil {
			return result{}, fmt.Errorf("%s: pass %d: %w", w.name, i, err)
		}
		walls = append(walls, pr.wallS)
		allocs = append(allocs, totalAllocMB()-before)
		lat = append(lat, pr.latMS...)
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		for _, n := range pr.notes {
			fmt.Fprintf(os.Stderr, "%s: pass %d: FAILED %s\n", w.name, i, n)
		}
	}
	// A golden entry no pass produced is a missing output.
	for _, name := range sortedKeys(e.golden) {
		if _, seen := e.digests[name]; !seen && strings.HasPrefix(name, w.name+"/") {
			res.Attempted++
			res.Failed++
			fmt.Fprintf(os.Stderr, "%s: FAILED golden output %s was not produced\n", w.name, name)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s passes %d count\n", w.name, len(walls))
	fmt.Printf("%s latency_samples %d count\n", w.name, len(lat))
	p99 := percentile(lat, 99)

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	if e.rec == nil {
		// The tail is printed for the reader but carries no bound.
		fmt.Printf("%s p99_ms %s ms\n", w.name, strconv.FormatFloat(p99, 'g', -1, 64))
		values := map[string]float64{
			"wall_s":   median(walls),
			"p50_ms":   percentile(lat, 50),
			"alloc_mb": median(allocs),
			"setup_s":  median(setups),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		}
		return res, nil
	}

	values := map[string]float64{"work.wall_s": median(walls), "work.p99_ms": p99, "work.peak_rss_mb": rss, "work.spans": float64(e.rec.spanCount())}
	for _, l := range spanLayers {
		values["self."+l+".s"] = e.rec.layer(l).self.seconds() / float64(len(walls))
	}
	if err := runProbes(e, values); err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	if err := inst.derived(values); err != nil {
		return result{}, fmt.Errorf("%s: derived metrics: %w", w.name, err)
	}
	if p := values["budget.predicted_s"]; p > 0 {
		values["budget.error_pct"] = (p/values["work.wall_s"] - 1) * 100
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	return res, nil
}

// totalAllocMB reads the bytes the process has allocated so far.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %q: %w", sc.Text(), err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// scratch makes a fresh private directory under root.
func scratch(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// printMetrics prints one "workload metric value unit" line per metric,
// in table order.
func printMetrics(name string, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("%s %s %s %s\n", name, d.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
}

// tracePath is where a traced run writes its trace.
func tracePath(outDir, name string) string { return filepath.Join(outDir, name+".trace.json") }
