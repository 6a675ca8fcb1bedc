// matmul multiplies two random matrices with a chosen algorithm, layout,
// and worker count, verifies the result against the naive reference, and
// prints the timing breakdown — the library's command-line smoke test.
//
// Usage:
//
//	matmul [-m 1000] [-k 1000] [-n 1000] [-alg standard] [-layout ""]
//	       [-workers 0] [-kernel unrolled4] [-tile 0] [-verify]
//	       [-alpha 1] [-beta 0] [-ta] [-tb] [-reps 1] [-trace out.json]
//
// With -trace, every repetition is recorded and the result is written
// as Chrome Trace Event JSON — load it at https://ui.perfetto.dev to
// see per-worker task, steal, leaf-kernel, and pack/unpack activity
// under the call's convert/compute phase spans.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	recmat "repro"
)

func main() {
	m := flag.Int("m", 1000, "rows of op(A) and C")
	k := flag.Int("k", 0, "inner dimension (default: m)")
	n := flag.Int("n", 0, "columns of op(B) and C (default: m)")
	algName := flag.String("alg", "standard",
		"algorithm: "+strings.Join(recmat.AlgorithmNames(), "|"))
	layoutName := flag.String("layout", "", "layout: c|u|x|z|g|h; empty = the library's (Z-Morton)")
	workers := flag.Int("workers", 0, "worker count (0 = one per CPU)")
	kernelName := flag.String("kernel", "auto",
		"leaf kernel: auto|"+strings.Join(recmat.Kernels(), "|")+" (auto = the default: the widest family this CPU has)")
	forceTile := flag.Int("tile", 0, "force exact tile size (0 = auto-select)")
	verify := flag.Bool("verify", false, "check against the naive reference (slow for large n)")
	alpha := flag.Float64("alpha", 1, "alpha scalar")
	beta := flag.Float64("beta", 0, "beta scalar")
	ta := flag.Bool("ta", false, "use op(A) = Aᵀ")
	tb := flag.Bool("tb", false, "use op(B) = Bᵀ")
	reps := flag.Int("reps", 1, "repetitions (reports the best)")
	seed := flag.Int64("seed", 1, "random seed")
	tracePath := flag.String("trace", "", "write a Chrome Trace Event JSON file covering all repetitions")
	flag.Parse()

	if *k == 0 {
		*k = *m
	}
	if *n == 0 {
		*n = *m
	}
	alg, err := recmat.ParseAlgorithm(*algName)
	die(err)
	lo, err := recmat.ParseLayout(*layoutName)
	die(err)
	kname := ""
	if *kernelName != "auto" {
		_, err := recmat.KernelByName(*kernelName) // fail fast on typos
		die(err)
		kname = *kernelName
	}

	rng := rand.New(rand.NewSource(*seed))
	ar, ac := *m, *k
	if *ta {
		ar, ac = ac, ar
	}
	br, bc := *k, *n
	if *tb {
		br, bc = bc, br
	}
	A := recmat.Random(ar, ac, rng)
	B := recmat.Random(br, bc, rng)
	C0 := recmat.Random(*m, *n, rng)

	eng := recmat.NewEngine(*workers)
	defer eng.Close()
	opts := &recmat.Options{Layout: lo, Algorithm: alg, KernelName: kname, ForceTile: *forceTile}

	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		die(err)
		die(eng.EnableTracing(traceFile))
	}

	var best *recmat.Report
	var C *recmat.Matrix
	for r := 0; r < *reps; r++ {
		C = C0.Clone()
		rep, err := eng.DGEMM(*ta, *tb, *alpha, A, B, *beta, C, opts)
		die(err)
		if best == nil || rep.Total() < best.Total() {
			best = rep
		}
	}

	if traceFile != nil {
		die(eng.DisableTracing())
		die(traceFile.Close())
		fmt.Printf("trace: wrote %s (load at https://ui.perfetto.dev)\n", *tracePath)
	}

	flops := 2 * float64(*m) * float64(*k) * float64(*n)
	fmt.Printf("C(%dx%d) = %.3g*op(A)(%dx%d)·op(B)(%dx%d) + %.3g*C\n",
		*m, *n, *alpha, *m, *k, *k, *n, *beta)
	kernelRan := best.Kernel
	if *kernelName == "auto" {
		kernelRan = "auto:" + kernelRan
	}
	fmt.Printf("algorithm=%v layout=%v workers=%d kernel=%s\n", alg, lo, eng.Workers(), kernelRan)
	fmt.Printf("ran: %v layout=%v fast-cutoff=%d fast-levels=%d\n", best.Alg, best.Layout, best.FastCutoff, best.FastLevels)
	for _, note := range best.Degraded {
		fmt.Printf("degraded: %s\n", note)
	}
	fmt.Printf("tiling: depth=%d tiles=(%d,%d,%d) padded=(%d,%d,%d) blocks=%d\n",
		best.Depth, best.TileM, best.TileK, best.TileN,
		best.PaddedM, best.PaddedK, best.PaddedN, best.Blocks)
	fmt.Printf("packs: reused=%d deferred=%d converted=%d bytes\n", best.PackReused, best.PackDeferred, best.ConvertBytes)
	fmt.Printf("convert-in  %12v\n", best.ConvertIn)
	fmt.Printf("compute     %12v   (%.0f MFLOPS)\n", best.Compute,
		flops/best.Compute.Seconds()/1e6)
	fmt.Printf("convert-out %12v\n", best.ConvertOut)
	fmt.Printf("total       %12v   conversion share %.1f%%\n", best.Total(),
		100*float64(best.ConvertIn+best.ConvertOut)/float64(best.Total()))
	fmt.Printf("work=%.3g flops  span=%.3g flops  parallelism=%.1f\n",
		best.Work, best.Span, best.Parallelism())
	fmt.Printf("sched: spawns=%d steals=%d inline=%d parks=%d wakes=%d  utilization=%.1f%%\n",
		best.Spawns, best.Steals, best.Inline, best.Parks, best.Wakes, 100*best.Utilization)

	if *verify {
		t0 := time.Now()
		want := C0.Clone()
		recmat.RefGEMM(*ta, *tb, *alpha, A, B, *beta, want)
		diff := recmat.MaxAbsDiff(C, want)
		tol := 1e-10 * float64(*k)
		status := "OK"
		if diff > tol {
			status = "FAIL"
		}
		fmt.Printf("verify: max |diff| = %.3g (tol %.3g) %s  [reference took %v]\n",
			diff, tol, status, time.Since(t0))
		if diff > tol {
			os.Exit(1)
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
