// Command bench is the repository's benchmark: five named workloads over
// the simulated machine, the rank schedulers and the resultsd query tier,
// each wired in-process exactly as the corresponding command wires its
// layers, so that one binary can also time calls into every layer.
//
//	go run ./bench -workload sweep_cold -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload all [-runs N] [-out bench/out/A.json]
//	go run ./bench -compare bench/out/A.json bench/out/B.json
//
// A run sets the workload up (three times, reporting the median as
// setup_s), warms it, and repeats passes over the workload's fixed batch
// of operations until -seconds have elapsed, at least three times. It
// checks the outputs of every pass, prints one "workload metric value
// unit" line per metric and, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones, measured with tracing off; with
// -trace 1 the run records a span at every layer boundary it can reach,
// runs the per-layer probes, prints the per-layer metrics and writes a
// Chrome trace to bench/out/<workload>.trace.json. The exit status is
// non-zero when an output check fails.
//
// Inputs come from -seed alone; the layers under test receive only
// generated inputs. See README.md for the metric glossary, how the layers
// interact and how to read the trace.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenSeed is the seed whose outputs are pinned byte for byte.
const goldenSeed = 1

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

var workloads = []workload{
	{"sweep_cold", func(e *env) instance { return newSweepCold(e) }},
	{"case_amr", func(e *env) instance { return newCaseAMR(e) }},
	{"comm_p16", func(e *env) instance { return newCommP16(e) }},
	{"serve_hot", func(e *env) instance { return newServeHot(e) }},
	{"serve_cold", func(e *env) instance { return newServeCold(e) }},
}

func main() {
	var (
		name    = flag.String("workload", "", `workload to run: sweep_cold, case_amr, comm_p16, serve_hot, serve_cold, or "all"`)
		seed    = flag.Int64("seed", goldenSeed, "seed of every generated input; seed 1 is also checked against the golden digests")
		seconds = flag.Float64("seconds", defaultSeconds, "how long a run repeats passes for")
		trace   = flag.Int("trace", 0, "1 records spans, runs the per-layer probes and prints the per-layer metrics instead of the end-to-end ones")
		outDir  = flag.String("dir", filepath.Join("bench", "out"), "directory for scratch files, traces and result sets")
		runs    = flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "with -workload all: write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
		golden  = flag.String("update-golden", "", "write the digests of this run to the named golden file (use with -seed 1)")
		manif   = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
		gloss   = flag.Bool("glossary", false, "print the README's metric glossary as the metric tables define it")
	)
	flag.Parse()
	var err error
	switch {
	case *manif:
		var data []byte
		if data, err = manifest(defaultSeconds); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *gloss:
		fmt.Print(glossary())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result-set files")
			break
		}
		err = compareSets(flag.Arg(0), flag.Arg(1))
	case *name == "all":
		err = runAll(*seed, *seconds, *trace, *runs, *outDir, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0, *outDir, *golden)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose output checks failed.
var errIncorrect = fmt.Errorf("output checks failed")

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, traced bool, outDir, updateGolden string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -help)", name)
	}
	dir, err := scratch(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: seconds, dir: dir, digests: map[string]string{}, probes: defaultProbes}
	if seed == goldenSeed && updateGolden == "" {
		if err := json.Unmarshal(goldenJSON, &e.golden); err != nil {
			return fmt.Errorf("golden digests: %w", err)
		}
	}
	defs := endToEnd
	if traced {
		e.rec = newRecorder()
		defs = perLayer
	}
	res, err := measure(*w, e)
	if err != nil {
		return err
	}
	if traced {
		if err := e.rec.writeTrace(tracePath(outDir, name)); err != nil {
			return err
		}
	}
	if updateGolden != "" {
		if err := mergeGolden(updateGolden, e.digests); err != nil {
			return err
		}
	}
	printMetrics(name, defs, res.Metrics)
	fmt.Printf("%s fail_ratio %s ratio\n", name, strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// mergeGolden adds this run's digests to the golden file, which holds
// every workload's.
func mergeGolden(path string, digests map[string]string) error {
	all := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range digests {
		all[k] = v
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runRecord is one run in a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultSet is what -workload all -out writes and -compare reads.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload, each run in a child process of its own so
// that peak_rss_mb is the workload's. With trace set each workload runs
// untraced and then traced, and the tracing overhead is reported.
func runAll(seed int64, seconds float64, trace, runs int, outDir, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			var untraced *result
			for t := 0; t <= trace; t++ {
				rec := runRecord{Workload: w.name, Seed: seed + int64(r), Trace: t}
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(rec.Seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(t), "-dir", outDir)
				cmd.Stderr = os.Stderr
				stdout, runErr := cmd.Output()
				os.Stdout.Write(stdout)
				last := bytes.TrimSpace(stdout)
				last = last[bytes.LastIndexByte(last, '\n')+1:]
				if json.Unmarshal(last, &rec.Result) != nil {
					return fmt.Errorf("%s: no result: %v", w.name, runErr)
				}
				failed = failed || runErr != nil
				set.Runs = append(set.Runs, rec)
				if t == 0 {
					untraced = &rec.Result
				} else if base := untraced.Metrics["wall_s"].Value; base > 0 {
					fmt.Printf("%s trace.overhead_pct.%s %.4g %%\n", w.name, w.name,
						(rec.Result.Metrics["work.wall_s"].Value/base-1)*100)
				}
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
