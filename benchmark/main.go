// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics measured with tracing off, and a traced run that
// adds per-layer metrics and a Chrome trace. BENCHMARK.json at the
// repository root declares the workloads, the metric names, their units
// and the regression bounds; README.md beside this file explains the
// choices.
//
//	go run ./benchmark                         every workload, end-to-end metrics
//	go run ./benchmark -trace                  every workload, per-layer metrics + traces
//	go run ./benchmark --workload dense-square --seed 3 --seconds 14 --trace 0
//	go run ./benchmark -compare a.json b.json  apply each metric's bound to two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	recmat "repro"
)

// procStart approximates process start: setup_s runs from here to the
// first measured op.
var procStart = time.Now()

// round is one measured round. Kind "w" is a closed loop at W workers,
// "base" the same at 1 worker (the base of speedup_wmax). A round is made
// of blocks, each the few ops between two samples of the host-speed
// yardstick; Speed is the factor that brings a block's times to the
// reference host speed (see yardstick.go).
type round struct {
	Kind       string    `json:"kind"`
	Flops      float64   `json:"flops"`       // useful flops of the ops that succeeded
	Seconds    float64   `json:"seconds"`     // time spent in the round's ops, as measured
	RefSeconds float64   `json:"ref_seconds"` // the same at the reference host speed
	LatMS      []float64 `json:"lat_ms"`      // per op, as measured
	Speed      []float64 `json:"speed"`       // per op: the host-speed factor of its block
}

// book adds one block to the round: ops that took seconds between two
// yardstick samples that give speed.
func (rd *round) book(speed, flops, seconds float64, latMS []float64) {
	rd.Flops += flops
	rd.Seconds += seconds
	rd.RefSeconds += seconds * speed
	for _, ms := range latMS {
		rd.LatMS = append(rd.LatMS, ms)
		rd.Speed = append(rd.Speed, speed)
	}
}

// childResult is what one part (one child process) hands its parent: raw
// samples, so that the parent reports medians over all parts.
type childResult struct {
	SetupS     float64            `json:"setup_s"`     // as measured
	SetupSpeed float64            `json:"setup_speed"` // the host-speed factor of the set-up
	Rounds     []round            `json:"rounds,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Info       map[string]any     `json:"info,omitempty"`
}

// setupDone ends the part's set-up: it books the time since the process
// started and the host speed over it, from the yardstick sample taken as
// the process started (where there is one) and the one taken now, which
// it returns.
func (r *childResult) setupDone(cfg config) (y float64) {
	r.SetupS = time.Since(procStart).Seconds()
	y = yardstick(cfg.size.yardSample)
	y0 := cfg.startYard
	if y0 == 0 {
		y0 = y
	}
	r.SetupSpeed = speedOf(cfg.workload, y0, y)
	return y
}

func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runPart runs one part in this process: "window" (untraced), "traced"
// (the workload's traced window) or "probes" (the layer probes).
func runPart(part string, cfg config) (*childResult, error) {
	res := &childResult{}
	var err error
	switch {
	case part == "probes":
		err = runProbes(cfg, res)
	case cfg.workload == "serve-stream" && part == "window":
		err = serveWindow(cfg, res)
	case cfg.workload == "serve-stream" && part == "traced":
		err = serveTraced(cfg, res)
	case part == "window" || part == "traced":
		var w *inproc
		if w, err = newInproc(cfg.workload, cfg.size, cfg.seed); err == nil {
			if part == "window" {
				err = w.window(cfg, res)
			} else {
				err = w.traced(cfg, res)
			}
		}
	default:
		err = fmt.Errorf("unknown part %q", part)
	}
	return res, err
}

// spawn runs one part in a child process, so that its set-up is cold
// and its memory its own, and waits for it; cancelling ctx kills it.
func spawn(ctx context.Context, part string, cfg config) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", part, "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-workers", strconv.Itoa(cfg.workers), "-tracedir", filepath.Dir(cfg.traceOut))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s part of %s: %w", part, cfg.workload, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s part of %s: bad result: %w", part, cfg.workload, err)
	}
	return &res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a single-workload run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload of one run in a results file.
type record struct {
	outcome
	Samples map[string]int   `json:"samples,omitempty"`
	Info    []map[string]any `json:"info,omitempty"`
	Errors  []string         `json:"errors,omitempty"`
}

// kindStats are the samples of one kind of round: a rate per round and
// the latency of every op.
type kindStats struct{ rate, lat []float64 }

// byKind pools the parts' rounds by kind, at the reference host speed
// when normalise is set and as measured otherwise.
func byKind(parts []*childResult, normalise bool) map[string]*kindStats {
	m := map[string]*kindStats{"w": {}, "base": {}}
	for _, p := range parts {
		for _, r := range p.Rounds {
			st, secs := m[r.Kind], r.Seconds
			if normalise {
				secs = r.RefSeconds
			}
			st.rate = append(st.rate, ratio(r.Flops, secs)/1e9)
			for i, ms := range r.LatMS {
				if normalise {
					ms *= r.Speed[i]
				}
				st.lat = append(st.lat, ms)
			}
		}
	}
	return m
}

// endToEnd pools the parts of an untraced run into the end-to-end
// metrics, each with its sample count. A rate is taken round by round
// and the run reports the median over its rounds; a latency is the
// median or percentile over all ops of the run. Set-up time and every
// op's time are first brought to the reference host speed (see
// yardstick.go); raw holds the same statistics as measured, and the
// run's host speed.
func endToEnd(parts []*childResult) (vals map[string]float64, n map[string]int, raw map[string]any) {
	var setups, rawSetups, speeds []float64
	for _, p := range parts {
		setups = append(setups, p.SetupS*p.SetupSpeed)
		rawSetups = append(rawSetups, p.SetupS)
		for _, r := range p.Rounds {
			speeds = append(speeds, r.Speed...)
		}
	}
	at, asMeasured := byKind(parts, true), byKind(parts, false)
	op, rawOp := at["w"], asMeasured["w"]
	vals = map[string]float64{
		"setup_s":      median(setups),
		"gflops":       median(at["w"].rate),
		"op_p50_ms":    median(op.lat),
		"speedup_wmax": ratio(median(at["base"].lat), median(at["w"].lat)),
	}
	n = map[string]int{"setup_s": len(setups), "gflops": len(at["w"].rate), "op_p50_ms": len(op.lat),
		"speedup_wmax": min(len(at["base"].lat), len(at["w"].lat))}
	raw = map[string]any{
		"host_speed": mean(speeds), "raw_setup_s": median(rawSetups), "raw_gflops": median(asMeasured["w"].rate),
		"raw_op_p50_ms": median(rawOp.lat), "raw_op_p90_ms": percentile(rawOp.lat, 90),
		// The tail is printed and not bounded: between runs of one commit
		// it moves by more than any bound the contract allows.
		"op_p90_ms": percentile(op.lat, 90),
	}
	return vals, n, raw
}

// measure runs one workload: children cold parts for the untraced run,
// or the traced window plus the layer probes for the traced one. part
// is spawn, or runPart where child processes are not wanted.
func measure(sp *spec, cfg config, trace bool, part func(string, config) (*childResult, error)) (*record, error) {
	var parts []*childResult
	rec := &record{Samples: map[string]int{}}
	vals := map[string]float64{}
	declared := sp.EndToEnd
	if trace {
		declared = sp.PerLayer
		for _, name := range []string{"traced", "probes"} {
			c := cfg
			if name == "traced" {
				c.seconds = cfg.seconds / 2
			}
			res, err := part(name, c)
			if err != nil {
				return nil, err
			}
			for k, v := range res.Layer {
				vals[k] = v
			}
			parts = append(parts, res)
		}
	} else {
		for i := 0; i < children; i++ {
			c := cfg
			c.seconds = cfg.seconds / children
			res, err := part("window", c)
			if err != nil {
				return nil, err
			}
			parts = append(parts, res)
		}
		var raw map[string]any
		vals, rec.Samples, raw = endToEnd(parts)
		rec.Info = append(rec.Info, raw)
	}
	for _, p := range parts {
		rec.Attempted += p.Attempted
		rec.Failed += p.Failed
		rec.Errors = append(rec.Errors, p.Errors...)
		if p.Info != nil {
			rec.Info = append(rec.Info, p.Info)
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.Metrics = map[string]metricValue{}
	for _, m := range declared {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", cfg.workload, m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: finite(v), Unit: m.Unit}
		delete(vals, m.Name)
	}
	for name := range vals {
		return nil, fmt.Errorf("%s: metric %s was measured but is not declared in BENCHMARK.json", cfg.workload, name)
	}
	return rec, nil
}

// report prints one workload's metrics by name, with units and counts.
func report(sp *spec, name string, rec *record, trace bool) {
	declared := sp.EndToEnd
	if trace {
		declared = sp.PerLayer
	}
	fmt.Printf("%s: attempted %d, failed %d\n", name, rec.Attempted, rec.Failed)
	for _, m := range declared {
		line := fmt.Sprintf("  %-32s %14.6g %-8s", m.Name, rec.Metrics[m.Name].Value, m.Unit)
		if n, ok := rec.Samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if trace {
			for _, info := range rec.Info {
				if note, ok := info[m.Name]; ok {
					line += fmt.Sprintf(" (%v)", note)
				}
			}
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, info := range rec.Info {
		keys := make([]string, 0, len(info))
		for k := range info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var kv []string
		for _, k := range keys {
			kv = append(kv, fmt.Sprintf("%s=%v", k, info[k]))
		}
		fmt.Printf("  info: %s\n", strings.Join(kv, " "))
	}
	if trace {
		for _, info := range rec.Info {
			f, okF := info["fused_p50_ms"].(float64)
			d, okD := info["traced_p50_ms"].(float64)
			if okF && okD {
				fmt.Printf("  decomposed op %.3f ms against fused op %.3f ms: within 5 %%: %v\n", d, f, d <= 1.05*f && d >= 0.95*f)
			}
		}
	}
	for _, e := range rec.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

// runMeta describes the run: what a reader needs to place its numbers.
func runMeta(sp *spec, cfg config, trace bool) map[string]any {
	commit := "unknown" // `go run` does not stamp the binary, so ask git
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"seed": cfg.seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": cfg.workers, "connections": cfg.conns, "go": runtime.Version(),
		"cpu_features": recmat.CPUFeatures(), "commit": commit, "trace": trace,
		"window_seconds": cfg.seconds, "window_scale": cfg.seconds / float64(sp.RunSeconds),
	}
}

// resultsFile is what -o appends to and -compare reads: one entry per
// run of the benchmark.
type resultsFile struct {
	Runs []resultsRun `json:"runs"`
}

type resultsRun struct {
	Meta      map[string]any     `json:"meta"`
	Workloads map[string]*record `json:"workloads"`
}

func appendResults(path string, run resultsRun) error {
	var f resultsFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// normalize rewrites the contract's `--trace 0|1` into the boolean flag
// form, so `-trace` alone keeps working.
func normalize(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload only and print its result as the last line (default: all)")
	seed := fs.Int64("seed", 1, "seed of the generated operands and requests")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
	workers := fs.Int("workers", 0, "engine workers W (default min(nproc, 4); more than nproc is refused)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	out := fs.String("o", "", "append this run's results to this JSON file, the input of -compare")
	traceDir := fs.String("tracedir", filepath.Join("benchmark", "out"), "directory of the traced run's Chrome traces")
	child := fs.String("child", "", "internal: run one part in this process and print its samples")
	if err := fs.Parse(normalize(args)); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, workers: *workers,
		conns: runtime.NumCPU(), size: fullSize}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	if cfg.workers <= 0 {
		cfg.workers = defaultWorkers()
	}
	if cfg.workers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: %d workers on %d CPUs would measure time-slicing, not speedup\n", cfg.workers, runtime.NumCPU())
		return 2
	}
	if cfg.workload != "" && !sp.hasWorkload(cfg.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.traceOut = filepath.Join(*traceDir, "trace-"+cfg.workload+".json")

	if *child != "" {
		cfg.startYard = yardstick(cfg.size.yardSample)
		res, err := runPart(*child, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	// An interrupted run takes its child down with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	inChild := func(part string, c config) (*childResult, error) { return spawn(ctx, part, c) }
	meta := runMeta(sp, cfg, *trace)
	fmt.Printf("benchmark: %v\n", meta)
	results := resultsRun{Meta: meta, Workloads: map[string]*record{}}
	ok := true
	var last *record
	for _, name := range names {
		c := cfg
		c.workload = name
		c.traceOut = filepath.Join(*traceDir, "trace-"+name+".json")
		rec, err := measure(sp, c, *trace, inChild)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		report(sp, name, rec, *trace)
		results.Workloads[name] = rec
		ok = ok && rec.Correct
		last = rec
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if cfg.workload != "" {
		line, err := json.Marshal(&last.outcome)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}
