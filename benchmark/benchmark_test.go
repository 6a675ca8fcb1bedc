package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/obs"
)

// TestSmoke runs every workload in-process at toy size, untraced and
// traced, and asserts structure only — no timing value: the metrics
// emitted are exactly those BENCHMARK.json declares, the declaration
// keeps the contract's limits, no op fails its output check, and every
// trace is a valid Chrome trace.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) breaks the name or unit syntax", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better, with a bound")
	}

	dir := t.TempDir()
	for _, w := range sp.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		cfg := config{workload: w.Name, seed: 1, seconds: 0.2, workers: defaultWorkers(), conns: 2,
			size: toySize, traceOut: filepath.Join(dir, "trace-"+w.Name+".json")}
		for _, trace := range []bool{false, true} {
			rec, err := measure(sp, cfg, trace, runPart)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			declared := sp.EndToEnd
			if trace {
				declared = sp.PerLayer
			}
			if len(rec.Metrics) != len(declared) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, trace, len(rec.Metrics), len(declared))
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %v", w.Name, trace, rec.Attempted, rec.Failed, rec.Errors)
			}
		}
		data, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if sum, err := obs.ValidateChromeTrace(data); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		} else if sum.Spans == 0 {
			t.Errorf("%s: trace holds no span", w.Name)
		}
	}
}

// TestVerdict pins -compare's rule: a metric is unresolved when the
// spread exceeds its bound, unless every run of b beats every run of a.
func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "gflops", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{30, 30.5, 31}, []float64{30.2, 30.4, 30.9}, "ok"},
		{[]float64{30, 30.5, 31}, []float64{26, 26.5, 27}, "REGRESSED"},
		{[]float64{25, 30, 35}, []float64{26, 29, 33}, "unresolved"},
		{[]float64{25, 30, 35}, []float64{36, 40, 45}, "ok"},
	} {
		if _, got := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
