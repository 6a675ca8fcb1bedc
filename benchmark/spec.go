package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json. The program reads it for the default window,
// the metric names it must emit, their units, and the bounds -compare
// applies, so that the contract and the program cannot drift apart.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo
// root under `go run ./benchmark`) or its parent (under `go test`).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// sizes are the operand shapes of the workloads and probes. fullSize is
// the benchmark; toySize is the tier-1 smoke test, which asserts
// structure only.
type sizes struct {
	square       int           // dense-square, fast-auto: n of the n×n×n product
	streamM      int           // stream-*: the fixed A is streamM×streamM
	streamN      int           // width of each streamed B
	streamCycle  int           // distinct B operands cycled through
	batchItems   int           // items per GEMMBatch wave
	batchDim     int           // each item is batchDim³
	serveNamed   int           // plan-cached A is serveNamed×serveNamed
	serveWidths  []int         // B widths of named requests
	serveSquares []int         // sizes of unnamed square requests
	serveSpecs   int           // request specs in the pool
	serveNames   int           // distinct named A operands
	smallCheck   int           // size of the full-RefGEMM instance per entry point
	spawnLeaves  int           // leaves of the empty task tree of sched.spawn_ns
	copyMaxMB    int           // cap on each machine.copy_gbps array
	yardSample   time.Duration // length of one host-speed yardstick sample
}

var fullSize = sizes{
	square: 1024, streamM: 1024, streamN: 48, streamCycle: 32,
	batchItems: 1000, batchDim: 64,
	serveNamed: 512, serveWidths: []int{16, 32, 48, 64}, serveSquares: []int{96, 128, 192, 256},
	serveSpecs: 64, serveNames: 4, smallCheck: 100, spawnLeaves: 1 << 16, copyMaxMB: 256,
	yardSample: 6 * time.Millisecond,
}

var toySize = sizes{
	square: 128, streamM: 128, streamN: 48, streamCycle: 4,
	batchItems: 24, batchDim: 32,
	serveNamed: 128, serveWidths: []int{16, 32, 48, 64}, serveSquares: []int{32, 48, 64, 96},
	serveSpecs: 16, serveNames: 2, smallCheck: 40, spawnLeaves: 1 << 8, copyMaxMB: 4,
	yardSample: time.Millisecond,
}

// Fixed rates of the daemon's open-loop phases, in requests per second.
// openRate is the one whose 99th percentile is reported too.
var openRates = []int{100, 200, 300, 400}

const (
	openRate = 200
	// serveBurst is how long the daemon's traffic runs between two
	// samples of the host-speed yardstick.
	serveBurst = 100 * time.Millisecond
	// latencyLimitMS is the daemon's limit on the 90th percentile of an
	// open loop; a failed or refused request misses it.
	latencyLimitMS = 25.0
	// warmupOps run before the first measured op and count in setup_s.
	warmupOps = 5
	// children is how many cold child processes one untraced run makes;
	// setup_s is the median of their set-up times, and every other
	// sample pools their windows.
	children = 3
	// roundsPerChild alternates W-worker and 1-worker rounds.
	roundsPerChild = 4
)

// config is one run of one workload part in this process.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window of this part
	workers  int     // W
	conns    int     // daemon connections: nproc
	size     sizes
	traceOut string // traced parts write their Chrome trace here; "" = nowhere
	// startYard is the yardstick sample a child process takes as it
	// starts; 0 where the part runs inside another process.
	startYard float64
}

// defaultWorkers is the sizing rule W = min(nproc, 4).
func defaultWorkers() int { return min(runtime.NumCPU(), 4) }
