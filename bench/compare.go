package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareSets prints one row per workload and end-to-end metric with both
// medians, the ratio with its base, the bound and a verdict, then checks
// that every exact count agrees. The second set is the candidate, the
// first the baseline.
//
// Verdicts: "regression" when the candidate's median is worse than the
// baseline's by more than the bound; "unresolved" when either set's
// spread (interquartile distance over median, as Python's
// statistics.quantiles(n=4) gives the quartiles) is wider than the bound,
// unless every candidate run reads better than every baseline run; "ok"
// otherwise. It returns an error on any regression, any run with failed
// operations, or any exact count that differs.
func compareSets(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-11s %-12s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound", "verdict")
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, 0, d.Name), b.values(w.Name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			if v == "regression" {
				bad++
			}
			ma, mb := median(va), median(vb)
			fmt.Printf("%-11s %-12s %12.6g %12.6g %8.4f %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, ma, mb, mb/ma, spread(va)*100, spread(vb)*100, d.Bound*100, v)
		}
	}
	for _, set := range []struct {
		path string
		s    *resultSet
	}{{pathA, a}, {pathB, b}} {
		for _, r := range set.s.Runs {
			if r.Result.Failed > 0 || !r.Result.Correct {
				fmt.Printf("%s: %s seed %d: %d of %d operations failed\n", set.path, r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
				bad++
			}
		}
	}
	// Exact counts: every run of one workload and seed, in either set,
	// must report the same value.
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		seen := map[string]float64{}
		for _, r := range append(append([]runRecord(nil), a.Runs...), b.Runs...) {
			m, ok := r.Result.Metrics[d.Name]
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if prev, ok := seen[key]; ok && prev != m.Value {
				fmt.Printf("exact count %s differs on %s: %v vs %v\n", d.Name, key, prev, m.Value)
				bad++
			}
			seen[key] = m.Value
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s), failed run(s) or differing exact count(s)", bad)
	}
	return nil
}

// verdict judges one metric of one workload; b is the candidate.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		// Every candidate run better than every baseline run.
		worstB, bestA := sb[len(sb)-1], sa[0]
		if d.Better == "higher" {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if better(worstB, bestA) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "regression"
	}
	return "ok"
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over a set's runs.
func (s *resultSet) values(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}
