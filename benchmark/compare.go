package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// side is one results file reduced to, per workload and metric, the
// values of its runs.
type side map[string]map[string][]float64

func loadSide(path string) (side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := side{}
	for _, run := range f.Runs {
		for name, rec := range run.Workloads {
			if s[name] == nil {
				s[name] = map[string][]float64{}
			}
			for metric, v := range rec.Metrics {
				s[name][metric] = append(s[name][metric], v.Value)
			}
			if rec.Failed > 0 {
				s[name]["failed"] = append(s[name]["failed"], float64(rec.Failed))
			}
		}
	}
	return s, nil
}

// spread is the distance between a side's extreme runs as a share of
// their median (0 for a single run).
func spread(xs []float64) float64 {
	return ratio(percentile(xs, 100)-percentile(xs, 0), median(xs))
}

// verdict applies one metric's bound to the runs of two sides. worse is
// how much b's median is worse than a's, as a share of a's. A metric
// whose run-to-run spread is wider than its bound is unresolved, not
// unchanged, unless every run of b reads better than every run of a.
func verdict(m metricSpec, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	bestA, worstB := percentile(a, 0), percentile(b, 100)
	if m.Better == "higher" {
		worse = -worse
		bestA, worstB = percentile(a, 100), percentile(b, 0)
	}
	allBetter := (m.Better == "higher" && worstB > bestA) || (m.Better != "higher" && worstB < bestA)
	switch {
	case max(spread(a), spread(b)) > m.Bound && !allBetter:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "REGRESSED"
	}
	return worse, "ok"
}

// compareFiles prints, for every workload and end-to-end metric, the
// two medians and the verdict; it exits 1 on a regression or a failed
// op, and reports unresolved metrics without failing.
func compareFiles(sp *spec, pathA, pathB string) int {
	a, errA := loadSide(pathA)
	b, errB := loadSide(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-18s %-14s %12s %12s %9s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(m, va, vb)
			if word == "REGRESSED" {
				code = 1
			}
			fmt.Printf("%-18s %-14s %12.5g %12.5g %8.1f%% %7.0f%%  %s (runs %d/%d)\n",
				w.Name, m.Name, median(va), median(vb), 100*worse, 100*m.Bound, word, len(va), len(vb))
		}
		if len(a[w.Name]["failed"])+len(b[w.Name]["failed"]) > 0 {
			fmt.Printf("%-18s has runs with failed ops: fail_rate is not 0\n", w.Name)
			code = 1
		}
	}
	return code
}
