// benchjson measures end-to-end GFLOPS for every {algorithm, layout,
// kernel} combination at fixed problem sizes and writes the results as
// JSON — the machine-readable record of the repo's performance
// trajectory (BENCH_10.json at the repo root is its committed output).
//
// Usage:
//
//	benchjson [-o BENCH_10.json] [-sizes 512,1024] [-reps 2]
//	          [-shapes 1024x1024x1024,1296x864x1296,...]
//	          [-algs standard,strassen,winograd] [-kernels unrolled4,...,auto]
//	          [-serve-b 48] [-serve-layout hilbert] [-serve-daemon 3s]
//
// GFLOPS are computed from 2n³ over the end-to-end time (conversion
// included), so layouts pay for their format conversions — the honest
// accounting the paper insists on. Compute-only GFLOPS are reported
// alongside, as are per-call heap allocation counts and the scratch
// arena reservation (schema 2). The recursion's temporaries come from
// the arena, so allocs_per_op measures only the per-call fixed costs
// (packed operand buffers, scheduler bookkeeping), not a per-node
// temp-tree churn.
//
// Schema 3 adds the amortized-conversion telemetry: per-record
// conversion seconds and bytes plus the pack-reuse and buffer-pool
// counters, and a serving-shape sweep (mode "serve-percall" vs
// "serve-prepacked") — a fixed n×n A multiplied by a stream of skinny
// n×b right-hand sides, once paying A's conversion per call and once
// with A prepacked so each call converts only B and the C epilogue.
// The per-stream flop count 2n²b is tiny next to A's conversion, so
// this is the shape where amortization matters most.
//
// Schema 4 adds the scheduler telemetry of the best rep: spawned and
// stolen task counts and the pool's worker utilization over the call
// (busy worker-time / workers × wall).
//
// Schema 5 adds the host's detected SIMD capabilities (cpu_features)
// and, by default, sweeps the hardware micro-kernels the CPU unlocked
// ("avx2", "avx512" on amd64, "neon" on arm64) alongside the pure-Go set — two
// records on different machines are only comparable once you know
// which instruction sets were in play.
//
// Schema 6 adds the serving-daemon record (mode "serve-daemon"): an
// in-process recmatd instance driven to saturation by the closed-loop
// multi-tenant load generator for -serve-daemon seconds, recording
// p50/p99 end-to-end latency, sustained QPS, and the shed rate at an
// offered load 8× the admission limit. GFLOPS is 0 on these records,
// which keeps them out of benchdiff's per-point GFLOPS comparisons —
// latency under deliberate overload is a different quantity than
// throughput of one multiplication.
//
// Schema 7 adds the batched-GEMM sweeps and the coalescing telemetry.
// The modes "batch-engine" vs "batch-looped" run -batch small square
// multiplies (64³-class) once as ONE engine wave (Engine.GEMMBatch) and
// once as a loop of independent calls over the identical operands; the
// modes "batch-serve-engine" vs "batch-serve-looped" do the same for
// the serving shape — a shared prepacked A against a stream of skinny
// right-hand sides (GEMMPrepackedBatch vs PrepackConforming +
// GEMMPrepacked per stream). Each record carries batch_size and
// per_item_seconds, the amortized per-multiply cost the batch path
// exists to lower. The serve-daemon record gains coalesce_rate, and a
// second daemon record (mode "serve-daemon-batch") drives the
// coalescing workload — every request naming one of two fixed operands
// in a recursive layout — so the QPS the daemon's request coalescer
// buys under saturation is on the committed record.
//
// Schema 8 adds the algorithm-family shape sweep (mode "alg-shape"):
// rectangular m×k×n problems (-shapes) on the canonical layout across
// the fast-algorithm family — the hand-coded Winograd, the table-driven
// ⟨2,2,2⟩ forms, the rectangular ⟨m,k,n⟩ tables, and "auto" — so the
// committed record shows where each table wins and what the per-shape
// auto-selection actually picks. These records carry m and k alongside
// n (square records leave them 0 ≡ n), GFLOPS from 2mkn, and
// algorithm_ran, the algorithm that executed ("auto"'s resolution, or
// the admission ladder's degradation).
//
// Schema 9 adds per-request latency attribution to the serving-daemon
// records: attribution maps each request phase (queue, gather, pack,
// compute, unpack) to its mean, p99, and share of end-to-end latency,
// aggregated by the load generator from the timing object every
// response now carries — so the committed record shows where time at
// the saturation edge actually goes, not just how much of it there is.
// The daemon also runs with its SLO flight recorder armed the way
// production would (spool directory, burn-rate monitor on the p99
// objective), and flight_dumps records how many bundles the sweep's
// overload tripped.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	recmat "repro"
	"repro/internal/serve"
)

type result struct {
	N int `json:"n"`
	// M and K complete the problem shape for rectangular records
	// (schema 8, mode "alg-shape"); zero means "same as n", so every
	// square record keeps its schema ≤7 form.
	M int `json:"m,omitempty"`
	K int `json:"k,omitempty"`
	// Mode distinguishes the sweeps: "" is the square per-call GEMM
	// sweep (schema ≤2 compatible); "serve-percall" and
	// "serve-prepacked" are the serving-shape records, whose GFLOPS come
	// from 2n²b per streamed right-hand side.
	Mode      string `json:"mode,omitempty"`
	Algorithm string `json:"algorithm"`
	Layout    string `json:"layout"`
	Kernel    string `json:"kernel"`
	// KernelRan is the kernel that actually executed; it differs from
	// Kernel only for "auto", where it names the calibration winner.
	KernelRan string `json:"kernel_ran"`
	// AlgorithmRan is the algorithm that actually executed (schema 8):
	// the per-shape resolution for "auto", or the admission ladder's
	// pick when a degradation moved the call off the request.
	AlgorithmRan  string  `json:"algorithm_ran,omitempty"`
	TotalSeconds  float64 `json:"total_seconds"`
	GFLOPS        float64 `json:"gflops"`
	ComputeGFLOPS float64 `json:"compute_gflops"`
	ConvertShare  float64 `json:"convert_share"`
	// Conversion telemetry (schema 3): wall time into and out of the
	// recursive layout, bytes moved by conversions, operand packs served
	// from an existing in-layout buffer (symmetric fold or prepacked
	// plan), and tiled-buffer pool traffic.
	ConvertInSeconds  float64 `json:"convert_in_seconds"`
	ConvertOutSeconds float64 `json:"convert_out_seconds"`
	ConvertBytes      int64   `json:"convert_bytes"`
	PackReused        int     `json:"pack_reused"`
	PoolHits          int     `json:"pool_hits"`
	PoolMisses        int     `json:"pool_misses"`
	// ArenaBytes is the scratch-arena reservation of the best rep;
	// AllocsPerOp / AllocBytesPerOp are the whole-process heap deltas
	// (runtime.MemStats Mallocs / TotalAlloc) around that rep's Mul call.
	ArenaBytes      int64  `json:"arena_bytes"`
	AllocsPerOp     uint64 `json:"allocs_per_op"`
	AllocBytesPerOp uint64 `json:"alloc_bytes_per_op"`
	// Scheduler telemetry of the best rep (schema 4): deque pushes,
	// successful steals, and the fraction of worker·wall time the pool
	// spent executing tasks during the call.
	Spawns            int64   `json:"spawns"`
	Steals            int64   `json:"steals"`
	WorkerUtilization float64 `json:"worker_utilization"`
	// Serving-daemon telemetry (schema 6, mode "serve-daemon" only):
	// end-to-end request latency percentiles, sustained successful QPS,
	// and the fraction of attempts shed, all measured at an offered load
	// far past the admission limit. N carries the generator's max dim.
	P50Seconds    float64 `json:"p50_seconds,omitempty"`
	P99Seconds    float64 `json:"p99_seconds,omitempty"`
	QPS           float64 `json:"qps,omitempty"`
	ShedRate      float64 `json:"shed_rate,omitempty"`
	RequestsTotal int     `json:"requests_total,omitempty"`
	RequestsOK    int     `json:"requests_ok,omitempty"`
	// Batched-path telemetry (schema 7): BatchSize is the wave size of a
	// batch-* record (1 for the looped comparator); PerItemSeconds is the
	// amortized wall time per multiply in the batch; CoalesceRate is the
	// fraction of a daemon record's successful requests that shared a
	// batched engine call with at least one sibling.
	BatchSize      int     `json:"batch_size,omitempty"`
	PerItemSeconds float64 `json:"per_item_seconds,omitempty"`
	CoalesceRate   float64 `json:"coalesce_rate,omitempty"`
	// Request-phase attribution (schema 9, serve-daemon records): each
	// phase's mean, p99, and share of end-to-end latency, aggregated
	// from the timing object of every successful response in the
	// selected window. FlightDumps counts the SLO flight bundles the
	// daemon's burn-rate monitor spooled during the sweep.
	Attribution map[string]serve.PhaseAttribution `json:"attribution,omitempty"`
	FlightDumps int64                             `json:"flight_dumps,omitempty"`
}

// fill copies a Report's telemetry into the record.
func (r *result) fill(rep *recmat.Report, flops float64) {
	r.KernelRan = rep.Kernel
	r.AlgorithmRan = rep.Alg.String()
	r.TotalSeconds = rep.Total().Seconds()
	r.GFLOPS = flops / rep.Total().Seconds() / 1e9
	r.ComputeGFLOPS = flops / rep.Compute.Seconds() / 1e9
	r.ConvertShare = float64(rep.ConvertIn+rep.ConvertOut) / float64(rep.Total())
	r.ConvertInSeconds = rep.ConvertIn.Seconds()
	r.ConvertOutSeconds = rep.ConvertOut.Seconds()
	r.ConvertBytes = rep.ConvertBytes
	r.PackReused = rep.PackReused
	r.PoolHits = rep.PoolHits
	r.PoolMisses = rep.PoolMisses
	r.ArenaBytes = rep.ArenaBytes
	r.Spawns = rep.Spawns
	r.Steals = rep.Steals
	r.WorkerUtilization = rep.Utilization
}

type output struct {
	Schema    int    `json:"schema"`
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Workers   int    `json:"workers"`
	Reps      int    `json:"reps"`
	// RefGFLOPS is the host-speed yardstick: a fixed serial in-cache
	// triple-loop matmul measured just before the sweep. Comparison
	// tools (cmd/benchdiff) divide it out so that two records taken at
	// different host clock speeds remain comparable.
	RefGFLOPS float64 `json:"ref_gflops"`
	// CPUFeatures names the SIMD capabilities detected on the host
	// (schema 5) — empty on architectures without a probe. Records the
	// hardware, not the sweep: a run under RECMAT_NOSIMD still lists the
	// features even though no assembly kernel was measured.
	CPUFeatures []string `json:"cpu_features"`
	Results     []result `json:"results"`
}

// refGFLOPS measures the yardstick: best of several reps of a 96³
// serial triple loop, small enough to live in cache so the number
// tracks CPU clock speed rather than memory.
func refGFLOPS() float64 {
	const n = 96
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < 8; rep++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[k*n+i] * b[j*n+k]
				}
				c[j*n+i] = s
			}
		}
		if dt := time.Since(t0); dt < best {
			best = dt
		}
	}
	if c[0] < -1 { // keep the loop observable
		fmt.Fprintln(os.Stderr, c[0])
	}
	return 2 * n * n * n / best.Seconds() / 1e9
}

func main() {
	// The default kernel sweep races the paper's kernel and the best
	// pure-Go tiers against whatever assembly kernels this host
	// registered, then "auto" to record what the autotuner picks.
	defaultKernels := append([]string{"unrolled4", "blocked", "packed8x4"}, recmat.SIMDKernels()...)
	defaultKernels = append(defaultKernels, "auto")
	out := flag.String("o", "BENCH_10.json", "output file (- for stdout)")
	sizesFlag := flag.String("sizes", "512,1024", "comma-separated problem sizes")
	algsFlag := flag.String("algs", "standard,strassen,winograd",
		"comma-separated algorithms for the square sweep (from: "+strings.Join(recmat.AlgorithmNames(), ",")+")")
	shapesFlag := flag.String("shapes", "1024x1024x1024,1296x864x1296,1536x512x1536",
		"comma-separated mXkXn shapes for the algorithm-family sweep (empty disables)")
	shapeAlgsFlag := flag.String("shape-algs",
		"winograd,winograd-2x2x2,strassen-2x2x2,fast-3x2x3,fast-4x2x4,laderman-3x3x3,auto",
		"comma-separated algorithms for the -shapes sweep")
	kernelsFlag := flag.String("kernels", strings.Join(defaultKernels, ","), "comma-separated kernels (auto = autotuned)")
	layoutsFlag := flag.String("layouts", "", "comma-separated layouts (default: all six)")
	workers := flag.Int("workers", 0, "worker count (0 = one per CPU)")
	reps := flag.Int("reps", 2, "repetitions per point (best is kept)")
	seed := flag.Int64("seed", 1, "random seed")
	serveB := flag.Int("serve-b", 48, "right-hand-side width for the serving-shape sweep (0 disables)")
	serveLayout := flag.String("serve-layout", "hilbert", "layout for the serving-shape sweep")
	serveDaemon := flag.Duration("serve-daemon", 3*time.Second, "duration of the saturation sweep against an in-process recmatd (0 disables)")
	batchCount := flag.Int("batch", 1000, "item count for the batched-vs-looped GEMM sweep (0 disables)")
	batchDim := flag.Int("batch-dim", 64, "square dimension of each item in the batched sweep")
	flag.Parse()

	sizes, err := parseInts(*sizesFlag)
	die(err)
	var algs []recmat.Algorithm
	for _, s := range splitList(*algsFlag) {
		a, err := recmat.ParseAlgorithm(s)
		die(err)
		algs = append(algs, a)
	}
	layouts := recmat.Layouts
	if *layoutsFlag != "" {
		layouts = nil
		for _, s := range splitList(*layoutsFlag) {
			lo, err := recmat.ParseLayout(s)
			die(err)
			layouts = append(layouts, lo)
		}
	}
	kernels := splitList(*kernelsFlag)
	for _, kn := range kernels {
		if kn != "auto" {
			_, err := recmat.KernelByName(kn)
			die(err)
		}
	}

	eng := recmat.NewEngine(*workers)
	defer eng.Close()
	o := output{
		Schema:      9,
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Workers:     eng.Workers(),
		Reps:        *reps,
		RefGFLOPS:   refGFLOPS(),
		CPUFeatures: recmat.CPUFeatures(),
	}
	fmt.Fprintf(os.Stderr, "host yardstick: %.3f GFLOPS (serial 96^3 in-cache), cpu features %v\n",
		o.RefGFLOPS, o.CPUFeatures)

	// The daemon saturation sweep runs first, on a quiet process: the
	// square sweeps below leave a heated heap and a GC cadence tuned to
	// 1024²-class garbage, which is noise the latency percentiles pick
	// up if the daemon runs last.
	if *serveDaemon > 0 {
		for _, workload := range []string{"mixed", "batch"} {
			r := serveDaemonBench(*serveDaemon, workload, *reps)
			o.Results = append(o.Results, r)
			fmt.Fprintf(os.Stderr, "%s %v: %.0f qps  p50 %.2fms  p99 %.2fms  shed %.1f%%  coalesce %.1f%%  (%d ok / %d attempts)\n",
				r.Mode, *serveDaemon, r.QPS, 1e3*r.P50Seconds, 1e3*r.P99Seconds, 100*r.ShedRate, 100*r.CoalesceRate, r.RequestsOK, r.RequestsTotal)
		}
	}

	for _, n := range sizes {
		rng := rand.New(rand.NewSource(*seed))
		A := recmat.Random(n, n, rng)
		B := recmat.Random(n, n, rng)
		C := recmat.NewMatrix(n, n)
		flops := 2 * float64(n) * float64(n) * float64(n)
		for _, alg := range algs {
			for _, lo := range layouts {
				for _, kn := range kernels {
					opts := &recmat.Options{Layout: lo, Algorithm: alg}
					if kn != "auto" {
						opts.KernelName = kn
					}
					var best *recmat.Report
					var bestAllocs, bestBytes uint64
					var ms0, ms1 runtime.MemStats
					for r := 0; r < *reps; r++ {
						runtime.ReadMemStats(&ms0)
						rep, err := eng.Mul(C, A, B, opts)
						runtime.ReadMemStats(&ms1)
						die(err)
						if best == nil || rep.Total() < best.Total() {
							best = rep
							bestAllocs = ms1.Mallocs - ms0.Mallocs
							bestBytes = ms1.TotalAlloc - ms0.TotalAlloc
						}
					}
					r := result{N: n, Algorithm: alg.String(), Layout: lo.String(), Kernel: kn,
						AllocsPerOp: bestAllocs, AllocBytesPerOp: bestBytes}
					r.fill(best, flops)
					o.Results = append(o.Results, r)
					fmt.Fprintf(os.Stderr, "n=%-5d %-9s %-11s %-10s %6.2f GFLOPS %8d allocs/op (ran %s)\n",
						n, r.Algorithm, r.Layout, r.Kernel, r.GFLOPS, r.AllocsPerOp, r.KernelRan)
				}
			}
		}
	}

	// The algorithm-family shape sweep (schema 8) runs on the canonical
	// layout: the rectangular ⟨m,k,n⟩ tables need its free mixed-radix
	// tile grids — on the recursive curves' power-of-two grids they hand
	// straight off to their base and measure nothing new.
	if *shapesFlag != "" {
		var salgs []recmat.Algorithm
		for _, s := range splitList(*shapeAlgsFlag) {
			a, err := recmat.ParseAlgorithm(s)
			die(err)
			salgs = append(salgs, a)
		}
		for _, spec := range splitList(*shapesFlag) {
			m, k, n, err := parseShape(spec)
			die(err)
			rng := rand.New(rand.NewSource(*seed))
			A := recmat.Random(m, k, rng)
			B := recmat.Random(k, n, rng)
			C := recmat.NewMatrix(m, n)
			flops := 2 * float64(m) * float64(k) * float64(n)
			// Reps interleave round-robin across the shape's algorithms
			// rather than running each algorithm's reps back to back:
			// benchdiff's within-record ratio gates (table Winograd vs
			// hand-coded) compare algorithms of one shape, and on a
			// bursty host a minutes-long drift between two sequential
			// measurement windows would dominate the few percent those
			// gates resolve. Interleaving gives every algorithm the same
			// exposure to the drift.
			best := make([]*recmat.Report, len(salgs))
			bestAllocs := make([]uint64, len(salgs))
			bestBytes := make([]uint64, len(salgs))
			var ms0, ms1 runtime.MemStats
			for r := 0; r < *reps+1; r++ { // +1: first round is warmup
				for i, alg := range salgs {
					opts := &recmat.Options{Layout: recmat.ColMajor, Algorithm: alg}
					runtime.ReadMemStats(&ms0)
					rep, err := eng.Mul(C, A, B, opts)
					runtime.ReadMemStats(&ms1)
					die(err)
					if r == 0 {
						continue
					}
					if best[i] == nil || rep.Total() < best[i].Total() {
						best[i] = rep
						bestAllocs[i] = ms1.Mallocs - ms0.Mallocs
						bestBytes[i] = ms1.TotalAlloc - ms0.TotalAlloc
					}
				}
			}
			for i, alg := range salgs {
				r := result{N: n, M: m, K: k, Mode: "alg-shape",
					Algorithm: alg.String(), Layout: recmat.ColMajor.String(), Kernel: "auto",
					AllocsPerOp: bestAllocs[i], AllocBytesPerOp: bestBytes[i]}
				r.fill(best[i], flops)
				o.Results = append(o.Results, r)
				fmt.Fprintf(os.Stderr, "%dx%dx%d %-16s %6.2f GFLOPS (ran %s/%s)\n",
					m, k, n, r.Algorithm, r.GFLOPS, r.AlgorithmRan, r.KernelRan)
			}
		}
	}

	if *serveB > 0 {
		lo, err := recmat.ParseLayout(*serveLayout)
		die(err)
		for _, n := range sizes {
			pc, pp := serveBench(eng, n, *serveB, lo, *reps, *seed)
			o.Results = append(o.Results, pc, pp)
			for _, r := range []result{pc, pp} {
				fmt.Fprintf(os.Stderr, "n=%-5d %-16s %-11s %6.2f GFLOPS convert %4.0f%% %8d allocs/op\n",
					n, r.Mode, r.Layout, r.GFLOPS, 100*r.ConvertShare, r.AllocsPerOp)
			}
			if pc.GFLOPS > 0 {
				fmt.Fprintf(os.Stderr, "n=%-5d serve speedup: %.2fx\n", n, pp.GFLOPS/pc.GFLOPS)
			}
		}
	}

	if *batchCount > 0 {
		lo, err := recmat.ParseLayout(*serveLayout)
		die(err)
		// A fresh engine isolates the batch records from the square sweep's
		// state: its buffer pool and arena are sized for 1024²-class tiles
		// by now, which skews the small-shape fixed costs the batched-vs-
		// looped pair exists to measure.
		beng := recmat.NewEngine(*workers)
		be, bl := batchSquareBench(beng, *batchCount, *batchDim, lo, *reps, *seed)
		o.Results = append(o.Results, be, bl)
		se, sl := batchServeBench(beng, *batchCount/4, lo, *reps, *seed)
		o.Results = append(o.Results, se, sl)
		beng.Close()
		for _, pair := range [][2]result{{be, bl}, {se, sl}} {
			e, l := pair[0], pair[1]
			fmt.Fprintf(os.Stderr, "%-18s n=%-5d count=%-5d %6.2f GFLOPS  %8.1fus/item\n",
				e.Mode, e.N, e.BatchSize, e.GFLOPS, 1e6*e.PerItemSeconds)
			fmt.Fprintf(os.Stderr, "%-18s n=%-5d count=%-5d %6.2f GFLOPS  %8.1fus/item  (batched %.2fx)\n",
				l.Mode, l.N, e.BatchSize, l.GFLOPS, 1e6*l.PerItemSeconds, e.GFLOPS/l.GFLOPS)
		}
	}

	buf, err := json.MarshalIndent(&o, "", "  ")
	die(err)
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	die(os.WriteFile(*out, buf, 0o644))
}

// serveBench measures the serving pattern at one size: a fixed n×n A
// against a stream of skinny n×b right-hand sides. The per-call record
// re-converts A on every stream (what a caller without plans pays); the
// prepacked record converts A once outside the timed region and then
// pays only the conforming pack of each streamed B plus the C epilogue.
// Each stream's wall time includes everything the caller would do per
// arriving B — for the prepacked mode that is PrepackConforming +
// GEMMPrepacked + Release. The best stream of each mode is recorded.
func serveBench(eng *recmat.Engine, n, b int, lo recmat.Layout, reps int, seed int64) (percall, prepacked result) {
	rng := rand.New(rand.NewSource(seed))
	A := recmat.Random(n, n, rng)
	B := recmat.Random(n, b, rng)
	C := recmat.NewMatrix(n, b)
	opts := &recmat.Options{Layout: lo, Algorithm: recmat.Standard}
	flops := 2 * float64(n) * float64(n) * float64(b)
	streams := reps
	if streams < 3 {
		streams = 3
	}

	percall = result{N: n, Mode: "serve-percall", Algorithm: "standard", Layout: lo.String(), Kernel: "auto"}
	var best *recmat.Report
	var bestAllocs, bestBytes uint64
	var ms0, ms1 runtime.MemStats
	for s := 0; s < streams+1; s++ { // +1: first stream is warmup
		runtime.ReadMemStats(&ms0)
		rep, err := eng.Mul(C, A, B, opts)
		runtime.ReadMemStats(&ms1)
		die(err)
		if s == 0 {
			continue
		}
		if best == nil || rep.Total() < best.Total() {
			best = rep
			bestAllocs = ms1.Mallocs - ms0.Mallocs
			bestBytes = ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	percall.fill(best, flops)
	percall.AllocsPerOp, percall.AllocBytesPerOp = bestAllocs, bestBytes

	prepacked = result{N: n, Mode: "serve-prepacked", Algorithm: "standard", Layout: lo.String(), Kernel: "auto"}
	paOpts := *opts
	paOpts.PartnerDim = b // the plan will serve n×b streams
	pa, err := eng.Prepack(A, false, &paOpts)
	die(err)
	defer pa.Release()
	bestWall := time.Duration(1 << 62)
	for s := 0; s < streams+1; s++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		pb, err := eng.PrepackConforming(B, false, opts, pa)
		die(err)
		rep, err := eng.GEMMPrepacked(context.Background(), 1, pa, pb, 0, C)
		pb.Release()
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		die(err)
		if s == 0 {
			continue
		}
		if wall < bestWall {
			bestWall = wall
			prepacked.fill(rep, flops)
			// Wall-clock accounting: the streamed B's conforming pack
			// happens outside the Report, so rebase the end-to-end
			// numbers on the measured stream time.
			prepacked.TotalSeconds = wall.Seconds()
			prepacked.GFLOPS = flops / wall.Seconds() / 1e9
			prepacked.ConvertShare = (rep.ConvertIn + rep.ConvertOut).Seconds() / wall.Seconds()
			prepacked.AllocsPerOp = ms1.Mallocs - ms0.Mallocs
			prepacked.AllocBytesPerOp = ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	return percall, prepacked
}

// batchSquareBench is the batched-vs-looped sweep at small square
// shapes: count dim³ multiplies run once as ONE engine wave and once as
// a loop of independent calls over the identical operands. Per-call
// fixed costs (admission, arena reservation, pool wave, buffer-pool
// round trips) dominate at this size, which is exactly what the batch
// path amortizes; per_item_seconds is the honest per-multiply cost.
func batchSquareBench(eng *recmat.Engine, count, dim int, lo recmat.Layout, reps int, seed int64) (batched, looped result) {
	const variants = 8 // distinct operand pairs, cycled across the batch
	rng := rand.New(rand.NewSource(seed))
	As := make([]*recmat.Matrix, variants)
	Bs := make([]*recmat.Matrix, variants)
	for i := range As {
		As[i] = recmat.Random(dim, dim, rng)
		Bs[i] = recmat.Random(dim, dim, rng)
	}
	Cs := make([]*recmat.Matrix, count)
	items := make([]recmat.GEMMBatchItem, count)
	for i := range Cs {
		Cs[i] = recmat.NewMatrix(dim, dim)
		items[i] = recmat.GEMMBatchItem{Alpha: 1, A: As[i%variants], B: Bs[i%variants], C: Cs[i]}
	}
	opts := &recmat.Options{Layout: lo, Algorithm: recmat.Standard}
	flops := float64(count) * 2 * float64(dim) * float64(dim) * float64(dim)

	batched = result{N: dim, Mode: "batch-engine", Algorithm: "standard", Layout: lo.String(), Kernel: "auto", BatchSize: count}
	bestWall := time.Duration(1 << 62)
	for r := 0; r < reps+1; r++ { // +1: first rep is warmup
		t0 := time.Now()
		bs, errs, err := eng.GEMMBatch(context.Background(), items, opts)
		wall := time.Since(t0)
		die(err)
		for _, e := range errs {
			die(e)
		}
		if r == 0 {
			continue
		}
		if wall < bestWall {
			bestWall = wall
			batched.fill(&bs.Stats, flops)
			batched.TotalSeconds = wall.Seconds()
			batched.GFLOPS = flops / wall.Seconds() / 1e9
			batched.PerItemSeconds = wall.Seconds() / float64(count)
		}
	}

	looped = result{N: dim, Mode: "batch-looped", Algorithm: "standard", Layout: lo.String(), Kernel: "auto", BatchSize: 1}
	bestWall = time.Duration(1 << 62)
	for r := 0; r < reps+1; r++ {
		t0 := time.Now()
		var last *recmat.Report
		for i := range items {
			rep, err := eng.Mul(Cs[i], As[i%variants], Bs[i%variants], opts)
			die(err)
			last = rep
		}
		wall := time.Since(t0)
		if r == 0 {
			continue
		}
		if wall < bestWall {
			bestWall = wall
			looped.fill(last, flops)
			looped.TotalSeconds = wall.Seconds()
			looped.GFLOPS = flops / wall.Seconds() / 1e9
			looped.PerItemSeconds = wall.Seconds() / float64(count)
		}
	}
	return batched, looped
}

// batchServeBench is the batched-vs-looped sweep at the serving shape:
// one prepacked A shared by count skinny right-hand sides, run once as
// ONE GEMMPrepackedBatch wave (B's conforming pack fused into the wave
// tasks) and once as the pre-batch serving loop — PrepackConforming +
// GEMMPrepacked + Release per stream.
func batchServeBench(eng *recmat.Engine, count int, lo recmat.Layout, reps int, seed int64) (batched, looped result) {
	// 128×128 weights against 16-wide streams: the small end of the
	// daemon's serving shapes, where per-stream fixed costs (plan
	// allocation, admission, a scheduler wave per call) rival the
	// ~0.5 MFLOP of arithmetic — the regime the batched wave amortizes.
	const n, b, variants = 128, 16, 16
	if count < variants {
		count = variants
	}
	rng := rand.New(rand.NewSource(seed))
	A := recmat.Random(n, n, rng)
	Bs := make([]*recmat.Matrix, variants)
	for i := range Bs {
		Bs[i] = recmat.Random(n, b, rng)
	}
	Cs := make([]*recmat.Matrix, count)
	items := make([]recmat.PrepackedGEMMBatchItem, count)
	for i := range Cs {
		Cs[i] = recmat.NewMatrix(n, b)
		items[i] = recmat.PrepackedGEMMBatchItem{Alpha: 1, B: Bs[i%variants], C: Cs[i]}
	}
	opts := &recmat.Options{Layout: lo, Algorithm: recmat.Standard}
	paOpts := *opts
	paOpts.PartnerDim = b
	pa, err := eng.Prepack(A, false, &paOpts)
	die(err)
	defer pa.Release()
	flops := float64(count) * 2 * float64(n) * float64(n) * float64(b)

	batched = result{N: n, Mode: "batch-serve-engine", Algorithm: "standard", Layout: lo.String(), Kernel: "auto", BatchSize: count}
	bestWall := time.Duration(1 << 62)
	for r := 0; r < reps+1; r++ {
		t0 := time.Now()
		bs, errs, err := eng.GEMMPrepackedBatch(context.Background(), pa, items, opts)
		wall := time.Since(t0)
		die(err)
		for _, e := range errs {
			die(e)
		}
		if r == 0 {
			continue
		}
		if wall < bestWall {
			bestWall = wall
			batched.fill(&bs.Stats, flops)
			batched.TotalSeconds = wall.Seconds()
			batched.GFLOPS = flops / wall.Seconds() / 1e9
			batched.PerItemSeconds = wall.Seconds() / float64(count)
		}
	}

	looped = result{N: n, Mode: "batch-serve-looped", Algorithm: "standard", Layout: lo.String(), Kernel: "auto", BatchSize: 1}
	bestWall = time.Duration(1 << 62)
	for r := 0; r < reps+1; r++ {
		t0 := time.Now()
		var last *recmat.Report
		for i := range items {
			pb, err := eng.PrepackConforming(Bs[i%variants], false, opts, pa)
			die(err)
			rep, err := eng.GEMMPrepacked(context.Background(), 1, pa, pb, 0, Cs[i])
			pb.Release()
			die(err)
			last = rep
		}
		wall := time.Since(t0)
		if r == 0 {
			continue
		}
		if wall < bestWall {
			bestWall = wall
			looped.fill(last, flops)
			looped.TotalSeconds = wall.Seconds()
			looped.GFLOPS = flops / wall.Seconds() / 1e9
			looped.PerItemSeconds = wall.Seconds() / float64(count)
		}
	}
	return batched, looped
}

// serveDaemonBench stands up an in-process recmatd and drives it to
// saturation: offered load is 8× the admission limit, the queue is
// short and its wait bounded, so the daemon must shed — the record
// captures what latency and throughput look like at the edge the
// backpressure machinery defends. Client retries are disabled so the
// shed rate counts raw rejections, not post-retry outcomes. The "mixed"
// workload is the broad multi-tenant mix (mode "serve-daemon",
// comparable back to schema-6 records); "batch" is the coalescing
// workload — every request names one of two fixed operands in a
// recursive layout, so the queue the saturation builds is exactly the
// batching window the request coalescer feeds on (mode
// "serve-daemon-batch"). Like every other mode, the record keeps the
// best of the measurement windows, but a saturation window can be
// spoiled along two independent axes: external host load inflates the
// shed rate, while a window whose closed-loop clients ran slow
// deflates QPS and shed together. So the record keeps the fastest
// window among the calmer-shedding half — the median-shed guard
// discards load-spoiled windows, max-QPS discards slow-client ones.
// Windows are cheap relative to their variance; at least eight are
// taken.
func serveDaemonBench(duration time.Duration, workload string, reps int) result {
	if reps < 8 {
		reps = 8
	}
	maxDim := 128
	if workload == "batch" {
		maxDim = 256 // the coalescing workload's fixed operands are 256×256
	}
	mode := "serve-daemon"
	if workload == "batch" {
		mode = "serve-daemon-batch"
	}
	// One server across all reps: the first window warms the plan cache
	// and the engine's autotuned kernel picks, so the later windows
	// measure the steady-state server the SLO is a statement about.
	// The flight recorder is armed the way production would arm it —
	// spool directory plus a burn-rate monitor on a p99 objective this
	// deliberately saturating sweep is expected to burn — so the record
	// carries how many bundles the overload actually tripped. The
	// minute-long dump rate limit caps the recorder's perturbation at
	// one dump per sweep, and the median-shed/max-QPS window selection
	// below discards a dump-spoiled window like any other noisy one.
	spool, err := os.MkdirTemp("", "benchjson-flight-")
	die(err)
	defer os.RemoveAll(spool)
	s := serve.New(serve.Config{
		Workers:        runtime.GOMAXPROCS(0),
		MaxInflight:    2,
		QueueDepth:     4,
		MaxQueueWait:   20 * time.Millisecond,
		PlanCacheBytes: 64 << 20,
		MaxDim:         maxDim,

		FlightSpoolDir:    spool,
		FlightMinInterval: time.Minute,
		SLOObjective:      50 * time.Millisecond,
		SLOQuantile:       0.99,
		SLOFastWindow:     2 * time.Second,
		SLOSlowWindow:     6 * time.Second,
		SLOPoll:           500 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	var windows []*serve.Summary
	for rep := 0; rep < reps; rep++ {
		gen := &serve.LoadGen{
			Client:      &serve.Client{BaseURL: ts.URL, MaxRetries: -1},
			Tenants:     4,
			Concurrency: 16,
			MaxDim:      maxDim,
			Seed:        1,
		}
		if workload == "batch" {
			gen.Workload = "batch"
			gen.Tenants = 2 // fewer tenants → more requests per coalesce key
		}
		ctx, cancel := context.WithTimeout(context.Background(), duration)
		windows = append(windows, gen.Run(ctx))
		cancel()
	}
	ts.Close()
	sheds := make([]float64, len(windows))
	for i, w := range windows {
		sheds[i] = w.ShedRate()
	}
	sort.Float64s(sheds)
	medianShed := sheds[(len(sheds)-1)/2]
	var sum *serve.Summary
	for _, w := range windows {
		if w.ShedRate() <= medianShed && (sum == nil || w.QPS() > sum.QPS()) {
			sum = w
		}
	}
	flightDumps := s.FlightDumps()
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	die(s.Drain(dctx))
	dcancel()

	return result{
		N: maxDim, Mode: mode,
		Algorithm: "mixed", Layout: "mixed", Kernel: "auto", KernelRan: "auto",
		TotalSeconds:  sum.Duration.Seconds(),
		P50Seconds:    sum.Percentile(50).Seconds(),
		P99Seconds:    sum.Percentile(99).Seconds(),
		QPS:           sum.QPS(),
		ShedRate:      sum.ShedRate(),
		RequestsTotal: sum.Total,
		RequestsOK:    sum.OK,
		CoalesceRate:  sum.CoalesceRate(),
		Attribution:   sum.Attribution,
		FlightDumps:   flightDumps,
	}
}

func splitList(s string) []string {
	var parts []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// parseShape parses an "mXkXn" problem shape ("1296x864x1296").
func parseShape(s string) (m, k, n int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad shape %q: want mXkXn", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return 0, 0, 0, fmt.Errorf("bad shape %q: %q is not a positive integer", s, p)
		}
		dims[i] = v
	}
	return dims[0], dims[1], dims[2], nil
}

func parseInts(s string) ([]int, error) {
	var ns []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		ns = append(ns, v)
	}
	return ns, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
