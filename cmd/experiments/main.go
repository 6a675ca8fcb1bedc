// experiments regenerates every figure and table of the paper's
// evaluation (Section 5), printing one table per experiment. By default
// it runs every experiment at "quick" sizes that finish in a few minutes
// on a laptop; -full selects the paper's original problem sizes
// (n ≈ 1000–1536), and -fig / -exp select a single experiment.
//
// Usage:
//
//	experiments [-fig 1|2|4|5|6|7] [-exp slowdown|parallelism|conversion|ld|falseshare]
//	            [-full] [-workers 0] [-reps 3]
//
// The mapping from experiment to paper result is documented in DESIGN.md
// and the measured outputs are recorded in EXPERIMENTS.md.
//
// -exp autoparity, -exp streamparity, -exp fringe and -exp factor are
// not paper experiments but gates on the library's defaults (`make
// parity`, `make streamparity`, `make fringe`, `make factor`): they run
// only when named, and exit non-zero when Algorithm Auto is more than 5%
// slower than Standard, a per-call DGEMM on the serving shape is faster
// than the same product through a prepacked plan or more than 45%
// slower, a shape whose tiles are off the micro-kernel grid runs under
// 0.45 of the rate of its nearest neighbour on the grid, or a 2048² LU
// runs under half the rate of a Cholesky.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	recmat "repro"
	"repro/internal/cachesim"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/sched"
	"repro/internal/trace"
)

var (
	full    = flag.Bool("full", false, "use the paper's problem sizes (slow)")
	workers = flag.Int("workers", 0, "max worker count (0 = one per CPU)")
	reps    = flag.Int("reps", 3, "repetitions per data point (best is reported)")
	seed    = flag.Int64("seed", 1, "random seed")
	// The paper's experiments fix the four-way-unrolled C kernel, so that
	// is the default here — NOT the library's default. Pass -kernel=auto
	// for that: the widest kernel family the CPU has, per tile shape.
	kernel = flag.String("kernel", "unrolled4", "leaf kernel for all experiments (auto = the library's default for this CPU and the tile shape)")
)

// paperCutoff is the other half of paper fidelity: Section 5 recurses
// Strassen and Winograd down to single tiles, which the paper's scalar
// leaf made a win. The library's default is the crossover rule's.
const paperCutoff = 1

func main() {
	fig := flag.Int("fig", 0, "figure to reproduce (1, 2, 4, 5, 6, 7); 0 = all")
	exp := flag.String("exp", "", "text experiment: slowdown|parallelism|conversion|ld|falseshare|tlb|lowmem|sched|dilation, or a gate: autoparity|streamparity|fringe|factor")
	flag.Parse()
	switch *exp {
	case "autoparity":
		autoparity()
		return
	case "streamparity":
		streamparity()
		return
	case "fringe":
		fringe()
		return
	case "factor":
		factor()
		return
	}

	run := func(n int, name string, f func()) {
		all := *fig == 0 && *exp == ""
		if all || (n > 0 && *fig == n) || (name != "" && *exp == name) {
			f()
		}
	}
	run(1, "", fig1)
	run(2, "", fig2)
	run(4, "", fig4)
	run(5, "", fig5)
	run(6, "", fig6)
	run(7, "", fig7)
	run(-1, "slowdown", slowdown)
	run(-1, "parallelism", parallelism)
	run(-1, "conversion", conversion)
	run(-1, "ld", leadingDim)
	run(-1, "falseshare", falseShare)
	run(-1, "tlb", tlb)
	run(-1, "lowmem", lowmem)
	run(-1, "sched", schedStats)
	run(-1, "dilation", dilation)
}

// timeMul measures the best-of-reps end-to-end time of one configuration.
// Configurations that do not pin a kernel get the -kernel flag's choice
// (the paper's unrolled4 by default), and the fast algorithms recurse to
// single tiles, as the paper's do.
func timeMul(eng *recmat.Engine, n int, opts *recmat.Options) (time.Duration, *recmat.Report) {
	if opts.KernelName == "" && *kernel != "auto" {
		opts.KernelName = *kernel
	}
	if opts.FastCutoff == 0 {
		opts.FastCutoff = paperCutoff
	}
	rng := rand.New(rand.NewSource(*seed))
	A := recmat.Random(n, n, rng)
	B := recmat.Random(n, n, rng)
	C := recmat.NewMatrix(n, n)
	var best time.Duration
	var bestRep *recmat.Report
	for r := 0; r < *reps; r++ {
		t0 := time.Now()
		rep, err := eng.Mul(C, A, B, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		el := time.Since(t0)
		if bestRep == nil || el < best {
			best, bestRep = el, rep
		}
	}
	return best, bestRep
}

func header(title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("kernel=%s fast-cutoff=%d\n", *kernel, paperCutoff)
	fmt.Printf("================================================================\n")
}

// fig1 prints Figure 1: for the paper's three algorithms the dot grids
// of the elements of A and of B read to compute each element of C, then
// the summary of every algorithm that has a ⟨2,2,2⟩ table to trace.
func fig1() {
	header("Figure 1 — algorithmic locality of reference (8x8, per C element)")
	for _, alg := range []recmat.Algorithm{recmat.Standard, recmat.Strassen, recmat.Winograd} {
		deps := trace.Reads(alg, 8)
		fmt.Printf("=== %v ===\n%s%s", alg, trace.Render(deps, 'A'), trace.Render(deps, 'B'))
	}
	fmt.Printf("%-15s %14s %14s %14s\n", "algorithm", "total reads", "max A reads", "max B reads")
	for _, alg := range recmat.Algorithms {
		if trace.Table(alg) == nil {
			continue // a rectangular table: no quadrant recursion to trace
		}
		total, maxA, maxB := localityStats(alg, 8)
		fmt.Printf("%-15s %14d %14d %14d\n", alg, total, maxA, maxB)
	}
	fmt.Println("(standard reads exactly n per element; the fast algorithms read")
	fmt.Println(" supersets, worst on the diagonal for Strassen and at the (0,7)/(7,0)")
	fmt.Println(" corners for Winograd — matching the paper's Figure 1.)")
}

func localityStats(alg recmat.Algorithm, n int) (total, maxA, maxB int) {
	deps := trace.Reads(alg, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := trace.Count(deps[i][j].A), trace.Count(deps[i][j].B)
			total += a + b
			if a > maxA {
				maxA = a
			}
			if b > maxB {
				maxB = b
			}
		}
	}
	return
}

// fig2 prints the layout orderings (Figure 2) at depth 3: the position
// along the curve of every tile, and the curve drawn under it.
func fig2() {
	header("Figure 2 — layout function orderings (8x8 grid of tiles)")
	for _, c := range layout.Curves {
		fmt.Printf("\n%s (orientations: %d):\n", c, c.Orientations())
		g := c.Grid(3)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				fmt.Printf("%3d", g[i*8+j])
			}
			fmt.Println()
		}
		fmt.Println(renderPath(c, 3))
	}
}

// renderPath draws the curve on a character grid: cells at even
// positions, connecting segments between consecutive S positions.
func renderPath(c layout.Curve, d uint) string {
	n := 1 << d
	grid := make([][]byte, 2*n-1)
	for i := range grid {
		grid[i] = bytes.Repeat([]byte{' '}, 2*n-1)
	}
	pi, pj := c.SInverse(0, d)
	grid[2*pi][2*pj] = 'o'
	for s := uint64(1); s < uint64(n)*uint64(n); s++ {
		i, j := c.SInverse(s, d)
		grid[2*i][2*j] = 'o'
		di, dj := int(i)-int(pi), int(j)-int(pj)
		switch {
		case di == 0 && (dj == 1 || dj == -1):
			grid[2*i][2*int(pj)+dj] = '-'
		case dj == 0 && (di == 1 || di == -1):
			grid[2*int(pi)+di][2*j] = '|'
		default:
			// Non-adjacent jump (the dilation effect): mark both ends.
			grid[2*pi][2*pj] = '*'
			grid[2*i][2*j] = '*'
		}
		pi, pj = i, j
	}
	return string(bytes.Join(grid, []byte{'\n'}))
}

// fig4 reproduces Figure 4: execution time vs. tile size, standard
// algorithm, Z-Morton layout, one processor.
func fig4() {
	n1, n2 := 256, 384
	tiles1 := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	tiles2 := []int{3, 6, 12, 24, 48, 96, 192, 384}
	if *full {
		n1, n2 = 1024, 1536
		tiles1 = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
		tiles2 = []int{3, 6, 12, 24, 48, 96, 192, 384, 768}
	}
	header(fmt.Sprintf("Figure 4 — time vs. tile size (standard, Z-Morton, 1 proc, n=%d and n=%d)", n1, n2))
	eng := recmat.NewEngine(1)
	defer eng.Close()
	for _, nc := range []struct {
		n  int
		ts []int
	}{{n1, tiles1}, {n2, tiles2}} {
		fmt.Printf("\nn = %d\n%8s %14s %10s\n", nc.n, "tile", "time", "MFLOPS")
		for _, t := range nc.ts {
			el, _ := timeMul(eng, nc.n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard, ForceTile: t})
			fmt.Printf("%8d %14v %10.0f\n", t, el.Round(time.Microsecond), mflops(nc.n, el))
		}
	}
}

func mflops(n int, el time.Duration) float64 {
	return 2 * float64(n) * float64(n) * float64(n) / el.Seconds() / 1e6
}

// fig5 reproduces Figure 5: robustness of performance for n in a small
// range, standard and Strassen × {ColMajor, Z-Morton} × worker counts.
func fig5() {
	base, end, step := 250, 266, 2
	if *full {
		base, end, step = 1000, 1048, 4
	}
	header(fmt.Sprintf("Figure 5 — robustness for n in [%d,%d] (time per n)", base, end))
	ws := workerList()
	for _, w := range ws {
		eng := recmat.NewEngine(w)
		fmt.Printf("\nworkers = %d\n%6s", w, "n")
		type cfg struct {
			name string
			alg  recmat.Algorithm
			lo   recmat.Layout
		}
		cfgs := []cfg{
			{"std/LC", recmat.Standard, recmat.ColMajor},
			{"std/LZ", recmat.Standard, recmat.ZMorton},
			{"str/LC", recmat.Strassen, recmat.ColMajor},
			{"str/LZ", recmat.Strassen, recmat.ZMorton},
		}
		for _, c := range cfgs {
			fmt.Printf(" %12s", c.name)
		}
		fmt.Println()
		for n := base; n <= end; n += step {
			fmt.Printf("%6d", n)
			for _, c := range cfgs {
				el, _ := timeMul(eng, n, &recmat.Options{Layout: c.lo, Algorithm: c.alg})
				fmt.Printf(" %12v", el.Round(time.Microsecond))
			}
			fmt.Println()
		}
		eng.Close()
	}
}

// fig6 reproduces Figure 6: six layouts × three algorithms.
func fig6() {
	sizes := []int{250, 360}
	if *full {
		sizes = []int{1000, 1200}
	}
	header("Figure 6 — comparative performance of the six layouts")
	ws := workerList()
	for _, n := range sizes {
		for _, w := range ws {
			eng := recmat.NewEngine(w)
			fmt.Printf("\nn = %d, workers = %d\n%-12s", n, w, "layout")
			algs := []recmat.Algorithm{recmat.Standard, recmat.Strassen, recmat.Winograd}
			for _, a := range algs {
				fmt.Printf(" %12v", a)
			}
			fmt.Println()
			for _, lo := range recmat.Layouts {
				fmt.Printf("%-12v", lo)
				for _, a := range algs {
					el, _ := timeMul(eng, n, &recmat.Options{Layout: lo, Algorithm: a})
					fmt.Printf(" %12v", el.Round(time.Microsecond))
				}
				fmt.Println()
			}
			eng.Close()
		}
	}
}

// fig7 reproduces Figure 7's overhead factors with the kernel
// substitution of DESIGN.md: blocked≈native BLAS, unrolled4 = the
// paper's C kernel, naive = unoptimized compilation.
func fig7() {
	n := 256
	if *full {
		n = 1024
	}
	header(fmt.Sprintf("Figure 7 — leaf-kernel quality overheads (n=%d, 1 proc)", n))
	eng := recmat.NewEngine(1)
	defer eng.Close()
	fmt.Printf("%-10s %-10s %14s %10s %18s\n", "algorithm", "kernel", "time", "MFLOPS", "vs blocked")
	for _, alg := range []recmat.Algorithm{recmat.Standard, recmat.Strassen} {
		var base time.Duration
		// packed8x4 is beyond the paper's kernel set: it bounds from
		// below what a tuned native BLAS would have contributed.
		for _, kn := range []string{"blocked", "axpy", "unrolled4", "naive", "packed8x4"} {
			el, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg, KernelName: kn})
			if kn == "blocked" {
				base = el
			}
			ratio := "      -"
			if base > 0 {
				ratio = fmt.Sprintf("%6.2fx", float64(el)/float64(base))
			}
			fmt.Printf("%-10v %-10s %14v %10.0f %18s\n",
				alg, kn, el.Round(time.Microsecond), mflops(n, el), ratio)
		}
	}
	fmt.Println("(paper: no native BLAS costs 1.2-1.4x; gcc instead of cc costs 1.5-1.9x)")
}

// slowdown reproduces the Section 5 text: slowdown of the recursive code
// versus a tuned baseline, at the best tile size and at element level.
func slowdown() {
	sizes := []int{256, 384}
	if *full {
		sizes = []int{1024, 1536}
	}
	header("Section 5 text — slowdown factors vs. tuned baseline")
	eng := recmat.NewEngine(1)
	defer eng.Close()
	for _, n := range sizes {
		// Pick a tile near 16 that divides n into a power-of-two grid so
		// no padding flops distort the comparison (the paper's n=1024
		// uses t=16; n=1536 uses t=24).
		t := 16
		for !isPow2(n / t) {
			t += 8
		}
		native, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ColMajor, Algorithm: recmat.Standard, KernelName: "blocked", ForceTile: n})
		best, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard, ForceTile: t})
		fmt.Printf("\nn = %d\n", n)
		fmt.Printf("  tuned baseline (one blocked call): %v\n", native.Round(time.Microsecond))
		fmt.Printf("  recursive Z-Morton, t=%-2d:          %v  (slowdown %.2fx; paper: 1.88x at n=1024, 1.56x at n=1536)\n",
			t, best.Round(time.Microsecond), float64(best)/float64(native))
		if !*full && n <= 384 {
			elem, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard, ForceTile: 1})
			fmt.Printf("  element-level (t=1, Frens-Wise):   %v  (slowdown %.1fx; paper reports ~8x)\n",
				elem.Round(time.Microsecond), float64(elem)/float64(native))
		}
	}
}

// parallelism reproduces the critical-path discussion: analytic and
// measured work/span for the algorithms at n=1000-equivalent tiling.
func parallelism() {
	header("Section 5 text — available parallelism (work/span)")
	fmt.Printf("%-10s %8s %6s %14s %14s %12s\n", "algorithm", "n", "tile", "work(flops)", "span(flops)", "parallelism")
	n, t, d := 1024, 16, uint(6)
	for _, alg := range recmat.Algorithms {
		w, s := recmat.WorkSpan(alg, d, t)
		fmt.Printf("%-10v %8d %6d %14.3g %14.3g %12.1f\n", alg, n, t, w, s, recmat.Parallelism(w, s))
	}
	fmt.Println("\nmeasured (runtime accounting, SerialCutoff=1, n=256, t=16):")
	eng := recmat.NewEngine(workerCap())
	defer eng.Close()
	fmt.Printf("%-10s %14s %14s %12s\n", "algorithm", "work", "span", "parallelism")
	for _, alg := range recmat.Algorithms {
		_, rep := timeMul(eng, 256, &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg, ForceTile: 16, SerialCutoff: 1})
		fmt.Printf("%-10v %14.3g %14.3g %12.1f\n", alg, rep.Work, rep.Span, rep.Parallelism())
	}
	fmt.Println("(the paper's Cilk-measured values, ~40 standard / ~23 fast at n=1000,")
	fmt.Println(" are burdened by runtime overheads; the unburdened DAG parallelism is")
	fmt.Println(" far larger, and the fast algorithms' is lower, in the same ordering.)")
}

// conversion quantifies the format-conversion overhead of Section 4:
// on the square product the paper measures, then where it is largest —
// the serving shape, a fixed square A against a skinny B, one DGEMM per
// B — and as a bare pack rate.
func conversion() {
	n := 512
	if *full {
		n = 1024
	}
	header(fmt.Sprintf("Section 4 — conversion cost vs. multiply (standard, n=%d)", n))
	eng := recmat.NewEngine(workerCap())
	defer eng.Close()
	fmt.Printf("%-12s %12s %12s %12s %8s\n", "layout", "convert-in", "compute", "convert-out", "share")
	for _, lo := range recmat.Layouts[1:] {
		_, rep := timeMul(eng, n, &recmat.Options{Layout: lo, Algorithm: recmat.Standard})
		share := 100 * float64(rep.ConvertIn+rep.ConvertOut) / float64(rep.Total())
		fmt.Printf("%-12v %12v %12v %12v %7.1f%%\n", lo,
			rep.ConvertIn.Round(time.Microsecond), rep.Compute.Round(time.Microsecond),
			rep.ConvertOut.Round(time.Microsecond), share)
	}

	fmt.Printf("\nstream shape %dx%d · %dx%d (Z-Morton, standard, the library's default kernel), medians of %d calls\n",
		streamM, streamM, streamM, streamN, streamCalls)
	fmt.Printf("%-8s %11s %11s %11s %11s %9s %11s %9s\n", "workers", "convert-in", "compute", "convert-out", "per call", "deferred", "prepacked", "ratio")
	var in1 float64
	wmax := min(runtime.NumCPU(), workerCap())
	for _, w := range []int{1, wmax} {
		s := newStream(w)
		var in, comp, out, call, plan []float64
		var rep *recmat.Report
		for r := 0; r < streamCalls; r++ {
			var t float64
			t, rep = s.perCall()
			in, comp, out = append(in, rep.ConvertIn.Seconds()), append(comp, rep.Compute.Seconds()), append(out, rep.ConvertOut.Seconds())
			call, plan = append(call, t), append(plan, s.prepacked())
		}
		ms := func(v []float64) string { return fmt.Sprintf("%.3f ms", 1e3*medianOf(v)) }
		fmt.Printf("%-8d %11s %11s %11s %11s %9d %11s %9.3f\n", w, ms(in), ms(comp), ms(out), ms(call),
			rep.PackDeferred, ms(plan), medianOf(call)/medianOf(plan))
		if w == 1 {
			in1 = medianOf(in)
		} else {
			fmt.Printf("convert-in at 1 worker over convert-in at %d: %.2f\n", w, in1/medianOf(in))
		}
		s.close()
	}

	// The pack alone: a whole streamM² operand, by Engine.Pack — which
	// allocates the packed matrix it returns — and into buffers the
	// recycling pool already holds (a Prepack right after a Release).
	A := recmat.Random(streamM, streamM, rand.New(rand.NewSource(*seed)))
	z := &recmat.Options{Layout: recmat.ZMorton}
	peng := recmat.NewEngine(wmax)
	defer peng.Close()
	var cold, warm []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		_, err := peng.Pack(A, z)
		cold = append(cold, time.Since(t0).Seconds())
		check(err)
		t0 = time.Now()
		plan, err := peng.Prepack(A, false, z)
		warm = append(warm, time.Since(t0).Seconds())
		check(err)
		plan.Release()
	}
	gb := 8 * float64(streamM) * float64(streamM) / 1e9
	fmt.Printf("pack of a %d² operand, %d workers: Engine.Pack (fresh allocation) %.1f GB/s, into warm pooled buffers %.1f GB/s\n",
		streamM, wmax, gb/medianOf(cold), gb/medianOf(warm[1:]))
}

// The serving shape of the repository benchmark's stream workloads.
const streamM, streamN, streamCalls = 1024, 48, 301

// stream is that shape's two forms on one engine with the library's
// defaults: a DGEMM per right-hand side, and the same product through a
// plan of A built once.
type stream struct {
	eng     *recmat.Engine
	opts    *recmat.Options
	A, B, C *recmat.Matrix
	plan    *recmat.Plan
}

func newStream(workers int) *stream {
	rng := rand.New(rand.NewSource(*seed))
	s := &stream{eng: recmat.NewEngine(workers), opts: &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard},
		A: recmat.Random(streamM, streamM, rng), B: recmat.Random(streamM, streamN, rng), C: recmat.NewMatrix(streamM, streamN)}
	po := *s.opts
	po.PartnerDim = streamN
	var err error
	s.plan, err = s.eng.Prepack(s.A, false, &po)
	check(err)
	s.perCall() // warm-up: buffer pools
	s.prepacked()
	return s
}

func (s *stream) close() {
	s.plan.Release()
	s.eng.Close()
}

func (s *stream) perCall() (float64, *recmat.Report) {
	t0 := time.Now()
	rep, err := s.eng.DGEMM(false, false, 1, s.A, s.B, 0, s.C, s.opts)
	check(err)
	return time.Since(t0).Seconds(), rep
}

func (s *stream) prepacked() float64 {
	t0 := time.Now()
	pb, err := s.eng.PrepackConforming(s.B, false, s.opts, s.plan)
	check(err)
	_, err = s.eng.GEMMPrepackedOpts(context.Background(), s.opts, 1, s.plan, pb, 0, s.C)
	check(err)
	pb.Release()
	return time.Since(t0).Seconds()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// streamparity is the gate behind `make streamparity`: on the serving
// shape a per-call DGEMM, which packs A inside its block wave, must take
// between 1.00 and 1.45 times as long as PrepackConforming +
// GEMMPrepacked on the same operands, which reads a plan of A built
// once. The gate has two sides because it has failed both ways: a pack
// written out as a plan and read back (1.8–2.0 against today's plan
// side), and — when the scheduler started the plan's second runner a
// timer period late, and the per-call path's longer blocks hid the same
// delay — a resident plan slower than packing 8 MB per call (0.95–1.02).
// The pack is the memory-bound half, so the ratio moves with the host's
// bandwidth: 1.24–1.37 over seven runs on the 2-CPU builder host, 1.39
// on one worker. Pairs are interleaved, the order alternating, for about
// ten seconds a side, and compared by the median of the paired time
// ratios (see autoparity).
func streamparity() {
	const lo, hi = 1.00, 1.45
	w := *workers
	if w <= 0 {
		w = min(runtime.NumCPU(), 4)
	}
	s := newStream(w)
	defer s.close()
	t, rep := s.perCall()
	nreps := max(*reps, 9, int(10/t))
	var call, plan, ratio []float64
	for r := 0; r < nreps; r++ {
		var c, p float64
		if r%2 == 0 {
			c, _ = s.perCall()
			p = s.prepacked()
		} else {
			p = s.prepacked()
			c, _ = s.perCall()
		}
		call, plan, ratio = append(call, c), append(plan, p), append(ratio, c/p)
	}
	gf := 2 * float64(streamM) * float64(streamM) * float64(streamN) / 1e9
	fmt.Printf("per-call vs prepacked: %dx%d · %dx%d, %d workers, %d pairs, %d of A's segments packed in the wave\n",
		streamM, streamM, streamM, streamN, w, nreps, rep.PackDeferred)
	r := medianOf(ratio)
	fmt.Printf("per-call %.3f ms (%.1f GF/s)  prepacked %.3f ms (%.1f GF/s)  t ratio %.3f (limits %.2f–%.2f)\n",
		1e3*medianOf(call), gf/medianOf(call), 1e3*medianOf(plan), gf/medianOf(plan), r, lo, hi)
	switch {
	case r > hi:
		fmt.Printf("FAIL: a per-call DGEMM is more than %.0f%% slower than the prepacked product\n", (hi-1)*100)
		os.Exit(1)
	case r < lo:
		fmt.Println("FAIL: the prepacked product is slower than packing A per call — the resident plan's wave is being starved")
		os.Exit(1)
	}
	fmt.Printf("ok: packing A per call costs between nothing and %.0f%% over a resident plan\n", (hi-1)*100)
}

// fringeCase is one shape of the fringe gate: a call, its flops, and
// what the engine cut it into (read off a warm-up call's report).
type fringeCase struct {
	name  string
	n     int
	flops float64
	run   func() *recmat.Report
	rep   *recmat.Report
}

// onGrid: every tile is whole register blocks and none of it is padding.
func (c *fringeCase) onGrid() bool {
	return c.rep.TileM%leaf.MicroM == 0 && c.rep.TileN%leaf.MicroN == 0 && c.rep.PaddedN == c.n
}

func (c *fringeCase) time() float64 {
	t0 := time.Now()
	c.run()
	return time.Since(t0).Seconds()
}

// fringe is the gate behind `make fringe`: padding hands the leaf tiles
// such as 38×38×38 or 32×32×6, whose rows past the last full register
// block and columns past the last four run as zero-padded blocks of the
// same kernel body, and a shape that gets such tiles must run at no
// less than 0.45 of the rate of its nearest neighbour whose tiles are
// whole blocks and hold no padding (0.10–0.30 of it on the width sweep
// when the fringe was a scalar loop). No more than that, because a
// padded block computes lanes nobody reads: a 5-wide tile does the work
// of an 8-wide one, and 68 columns padded to 80 in 5-wide tiles can
// reach 0.53 at best and read 0.54–0.58. Two sweeps on the
// library's defaults, Z-Morton: a 512×512 operand planned for its
// partners' width bucket (a power of two, as the daemon buckets them)
// against widths on and off the grid, one PrepackConforming +
// GEMMPrepacked per call; and n³ per call. A tile under one block runs
// the "blocked" kernel (leaf.Auto) and is timed but not gated. Pairs
// are interleaved, the order alternating, and compared by the median of
// the paired rate ratios (see autoparity).
func fringe() {
	const floor = 0.45
	eng := recmat.NewEngine(*workers)
	defer eng.Close()
	rng := rand.New(rand.NewSource(*seed))
	z := &recmat.Options{Layout: recmat.ZMorton}
	ctx := context.Background()

	const m = 512
	A := recmat.Random(m, m, rng)
	plans := map[int]*recmat.Plan{} // by width bucket
	defer func() {
		for _, plan := range plans {
			plan.Release()
		}
	}()
	planned := func(n int) *fringeCase {
		bucket := 16
		for bucket < n {
			bucket <<= 1
		}
		if plans[bucket] == nil {
			po := *z
			po.PartnerDim = bucket
			plan, err := eng.Prepack(A, false, &po)
			check(err)
			plans[bucket] = plan
		}
		plan, B, C := plans[bucket], recmat.Random(m, n, rng), recmat.NewMatrix(m, n)
		return &fringeCase{name: fmt.Sprintf("%dx%dx%d plan/%d", m, m, n, bucket), flops: 2 * m * m * float64(n),
			run: func() *recmat.Report {
				pb, err := eng.PrepackConforming(B, false, z, plan)
				check(err)
				rep, err := eng.GEMMPrepackedOpts(ctx, z, 1, plan, pb, 0, C)
				check(err)
				pb.Release()
				return rep
			}}
	}
	cube := func(n int) *fringeCase {
		A, B, C := recmat.Random(n, n, rng), recmat.Random(n, n, rng), recmat.NewMatrix(n, n)
		return &fringeCase{name: fmt.Sprintf("%d^3", n), flops: 2 * float64(n) * float64(n) * float64(n),
			run: func() *recmat.Report {
				rep, err := eng.Mul(C, A, B, z)
				check(err)
				return rep
			}}
	}
	widths := []int{6, 42, 50}
	for n := 8; n <= 72; n += 4 {
		widths = append(widths, n)
	}
	sort.Ints(widths)

	fmt.Printf("off-grid tiles against the nearest on-grid shape: default kernel, Z-Morton, %d workers\n", eng.Workers())
	fmt.Printf("%-22s %-9s %6s %8s %7s   %-22s %7s %6s\n", "shape", "tile", "pairs", "ms", "GF/s", "on-grid neighbour", "GF/s", "ratio")
	failed := false
	for _, sweep := range []struct {
		sizes []int
		step  int // on-grid sizes are multiples of it
		shape func(n int) *fringeCase
	}{{widths, leaf.MicroN, planned}, {[]int{100, 150, 200, 250, 300, 500}, leaf.MicroM, cube}} {
		cases := map[int]*fringeCase{}
		at := func(n int) *fringeCase {
			if cases[n] == nil {
				c := sweep.shape(n)
				c.n, c.rep = n, c.run() // the warm-up too: buffer pools, scratch
				cases[n] = c
			}
			return cases[n]
		}
		for _, n := range sweep.sizes {
			c := at(n)
			if c.onGrid() {
				continue
			}
			// The nearest on-grid size, the larger on a tie.
			var nb *fringeCase
			for d := 1; nb == nil; d++ {
				for _, cand := range []int{n/sweep.step*sweep.step + d*sweep.step, (n+sweep.step-1)/sweep.step*sweep.step - d*sweep.step} {
					if nb == nil && cand > 0 && at(cand).onGrid() {
						nb = at(cand)
					}
				}
			}
			nreps := max(*reps, 15, int(0.4/c.time()))
			var tc, tn, ratio []float64
			for r := 0; r < nreps; r++ {
				var a, b float64
				if r%2 == 0 {
					a, b = c.time(), nb.time()
				} else {
					b, a = nb.time(), c.time()
				}
				tc, tn, ratio = append(tc, a), append(tn, b), append(ratio, (c.flops/a)/(nb.flops/b))
			}
			verdict := ""
			if c.rep.TileM < leaf.MicroM || c.rep.TileN < leaf.MicroN {
				verdict = "  (under one block: kernel " + c.rep.Kernel + ", not gated)"
			} else if medianOf(ratio) < floor {
				verdict, failed = "  SLOW", true
			}
			fmt.Printf("%-22s %-9s %6d %8.3f %7.1f   %-22s %7.1f %6.2f%s\n", c.name, fmt.Sprintf("%dx%dx%d", c.rep.TileM, c.rep.TileK, c.rep.TileN),
				nreps, 1e3*medianOf(tc), c.flops/medianOf(tc)/1e9, nb.name, nb.flops/medianOf(tn)/1e9, medianOf(ratio), verdict)
		}
	}
	if failed {
		fmt.Printf("FAIL: a shape with off-grid tiles runs under %.2f of its on-grid neighbour's rate\n", floor)
		os.Exit(1)
	}
	fmt.Printf("ok: no shape with off-grid tiles runs under %.2f of its on-grid neighbour's rate\n", floor)
}

// factor is the gate behind `make factor`, and the tree's measurement of
// the solver layer: Cholesky (n³/3 flops) and LU (2n³/3) beside the same
// run's Standard GEMM, on the library's defaults, Z-Morton and
// opts == nil (column-major leaves). Both factorizations are the same
// recursion over the same GEMM and differ in what is left over: LU's
// pivot search and row swaps against Cholesky's transposes. So an LU
// under half a Cholesky's rate at 2048² means a step of it has left the
// GEMM-backed recursion — it read 0.11–0.16 while LU's triangular
// solves and the right half of every panel were scalar loops on blocks
// up to n/2, and reads 1.0–1.7 since. Rounds are interleaved, the order
// alternating, and a row is the median of five.
func factor() {
	const floor, rounds = 0.5, 5
	eng := recmat.NewEngine(*workers)
	defer eng.Close()
	fmt.Printf("factorizations against the same run's Standard GEMM: default kernel, %d workers, median of %d\n", eng.Workers(), rounds)
	fmt.Printf("%-9s %5s %10s %9s %9s %6s %9s %9s %6s %8s\n",
		"layout", "n", "GEMM GF/s", "chol ms", "GF/s", "/GEMM", "LU ms", "GF/s", "/GEMM", "LU/chol")
	failed := false
	for _, o := range []*recmat.Options{{Layout: recmat.ZMorton}, nil} {
		name := "nil"
		if o != nil {
			name = fmt.Sprint(o.Layout)
		}
		for _, n := range []int{512, 1024, 2048} {
			rng := rand.New(rand.NewSource(*seed))
			G, S, C := recmat.Random(n, n, rng), recmat.NewMatrix(n, n), recmat.NewMatrix(n, n)
			check(eng.SYRK(true, 1, G, 0, S, o)) // S = GᵀG + n·I is positive definite
			for i := 0; i < n; i++ {
				S.Set(i, i, S.At(i, i)+float64(n))
			}
			runs := []func() error{
				func() error { _, err := eng.Mul(C, G, G, o); return err },
				func() error { _, err := eng.Cholesky(S, o); return err },
				func() error { _, err := eng.LU(G, o); return err },
			}
			flops := []float64{2, 1.0 / 3, 2.0 / 3}
			t := make([][]float64, len(runs))
			for r := -1; r < rounds; r++ { // round −1 warms the buffer pools
				for j := range runs {
					i := j
					if r%2 != 0 {
						i = len(runs) - 1 - j
					}
					t0 := time.Now()
					check(runs[i]())
					if r >= 0 {
						t[i] = append(t[i], time.Since(t0).Seconds())
					}
				}
			}
			var ms, gf [3]float64
			for i := range runs {
				ms[i] = 1e3 * medianOf(t[i])
				gf[i] = flops[i] * float64(n) * float64(n) * float64(n) / ms[i] / 1e6
			}
			verdict := ""
			if n == 2048 && gf[2] < floor*gf[1] {
				verdict, failed = "  SLOW", true
			}
			fmt.Printf("%-9s %5d %10.1f %9.1f %9.1f %6.2f %9.1f %9.1f %6.2f %8.2f%s\n", name, n,
				gf[0], ms[1], gf[1], gf[1]/gf[0], ms[2], gf[2], gf[2]/gf[0], gf[2]/gf[1], verdict)
		}
	}
	if failed {
		fmt.Printf("FAIL: a 2048² LU runs under %.2f of a Cholesky's rate\n", floor)
		os.Exit(1)
	}
	fmt.Printf("ok: a 2048² LU runs at no less than %.2f of a Cholesky's rate\n", floor)
}

// leadingDim reproduces the Section 5.1 explanation: leaf products of
// the standard algorithm on canonical layouts run at leading dimension
// n, while the fast algorithms' temporaries halve the leading dimension
// each level. Simulated self-interference misses show why that matters.
func leadingDim() {
	header("Section 5.1 — self-interference vs. leading dimension (simulated)")
	fmt.Printf("%8s %10s %14s %10s\n", "ld", "t", "L1 misses", "miss rate")
	for _, ld := range []int{16, 68, 100, 64, 128, 256, 512, 1024, 520} {
		r := cachesim.LeafSim{T: 16, LD: ld, Repeats: 50, Cfg: cachesim.Small}.Run()
		fmt.Printf("%8d %10d %14d %9.1f%%\n", ld, 16, r.L1.Misses, 100*r.L1.MissRate())
	}
	fmt.Println("(a 16x16 tile re-walked 50 times: contiguous (ld=16) or benign leading")
	fmt.Println(" dimensions (68, 100) miss only on cold start; power-of-two leading")
	fmt.Println(" dimensions make the tile's columns conflict in the direct-mapped L1")
	fmt.Println(" and keep missing. This size sensitivity is what makes the standard")
	fmt.Println(" algorithm under ColMajor fluctuate in Figure 5, while the fast")
	fmt.Println(" algorithms, whose temporaries halve ld at every level, stay flat.)")
}

// falseShare reproduces the false-sharing claim of Section 3 with the
// coherence simulator.
func falseShare() {
	header("Section 3 — false sharing across quadrant boundaries (simulated, 4 procs)")
	fmt.Printf("%8s %8s %-12s %16s %16s\n", "n", "t", "layout", "invalidations", "false-sharing")
	for _, nt := range [][2]int{{60, 15}, {100, 25}, {116, 29}, {64, 16}, {128, 32}} {
		n, t := nt[0], nt[1]
		for _, lo := range []recmat.Layout{recmat.ColMajor, recmat.ZMorton} {
			r := cachesim.MatmulSim{N: n, T: t, Curve: lo, Procs: 4, Cfg: cachesim.Small}.Run()
			fmt.Printf("%8d %8d %-12v %16d %16d\n", n, t, lo, r.L1.Invalidations, r.L1.FalseInvalidations)
		}
	}
	fmt.Println("(sizes whose quadrant height is not a multiple of the 4-word block")
	fmt.Println(" (60, 100, 116) false-share under ColMajor and not under Z-Morton,")
	fmt.Println(" which keeps each processor's quadrant contiguous; block-aligned")
	fmt.Println(" sizes (64, 128) hide the effect under both — the size sensitivity")
	fmt.Println(" the paper attributes to canonical layouts.)")
}

func workerList() []int {
	max := workerCap()
	ws := []int{1}
	for w := 2; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

func workerCap() int {
	if *workers > 0 {
		return *workers
	}
	return 4
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// tlb reproduces the Section 3 dilation claim for TLBs: row-direction
// walks over column-major matrices thrash the TLB; recursive layouts
// keep row neighbors in-page.
func tlb() {
	header("Section 3 — TLB dilation on row-direction walks (simulated)")
	fmt.Printf("%8s %-12s %12s %12s %12s\n", "n", "layout", "accesses", "TLB misses", "miss rate")
	for _, n := range []int{128, 256, 512} {
		for _, lo := range []recmat.Layout{recmat.ColMajor, recmat.ZMorton, recmat.Hilbert} {
			r := cachesim.RowWalkSim{N: n, T: 16, Curve: lo, Rows: 8, Cfg: cachesim.Small}.Run()
			fmt.Printf("%8d %-12v %12d %12d %11.1f%%\n",
				n, lo, r.Accesses, r.TLB.Misses, 100*r.TLB.MissRate())
		}
	}
	fmt.Println("(walking 8 rows element-by-element: once the column stride exceeds")
	fmt.Println(" the page size, the canonical layout touches a new page per element")
	fmt.Println(" while recursive layouts keep most row neighbors within one tile.)")
}

// lowmem reproduces the Section 5 curiosity about the space-conserving
// serial Strassen variant: it behaves like the standard algorithm, with
// recursive layouts reducing its time by 10-20%.
func lowmem() {
	n := 360
	if *full {
		n = 1024
	}
	header(fmt.Sprintf("Section 5 text — low-memory serial Strassen vs. layout (n=%d, 1 proc)", n))
	eng := recmat.NewEngine(1)
	defer eng.Close()
	fmt.Printf("%-18s %12s %12s %10s\n", "algorithm", "ColMajor", "Z-Morton", "LZ gain")
	for _, alg := range []recmat.Algorithm{recmat.Strassen, recmat.StrassenLowMem} {
		lc, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ColMajor, Algorithm: alg})
		lz, _ := timeMul(eng, n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg})
		fmt.Printf("%-18v %12v %12v %9.1f%%\n", alg,
			lc.Round(time.Microsecond), lz.Round(time.Microsecond),
			100*(1-float64(lz)/float64(lc)))
	}
	fmt.Println("(paper: the interspersed variant 'behaves more like the standard")
	fmt.Println(" algorithm: L_Z reduces execution times by 10-20%'.)")
}

// schedStats prints the scheduler counters for one run — the analogue of
// the Cilk instrumentation discussed in the paper's critique.
func schedStats() {
	n := 360
	if *full {
		n = 1000
	}
	header(fmt.Sprintf("Cilk critique analogue — scheduler behavior (n=%d)", n))
	fmt.Printf("%-10s %8s %10s %10s %10s %12s\n", "algorithm", "workers", "spawned", "stolen", "inline", "steal rate")
	for _, alg := range []recmat.Algorithm{recmat.Standard, recmat.Strassen} {
		for _, w := range workerList() {
			eng := recmat.NewEngine(w)
			eng.ResetSchedulerStats()
			timeMul(eng, n, &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg})
			st := eng.SchedulerStats()
			rate := 0.0
			if st.Spawns > 0 {
				rate = float64(st.Steals) / float64(st.Spawns)
			}
			fmt.Printf("%-10v %8d %10d %10d %10d %11.1f%%\n",
				alg, w, st.Spawns, st.Steals, st.Inline, 100*rate)
			eng.Close()
		}
	}
	fmt.Println("(the recursion stops spawning below the serial cutoff, so tasks are")
	fmt.Println(" few and coarse — the Cilk work-first discipline. On one worker no")
	fmt.Println(" steals occur, by construction; with more workers the steal count")
	fmt.Println(" grows with the worker count while remaining bounded by the spawn")
	fmt.Println(" count, which is how the paper's code kept scheduling overhead")
	fmt.Println(" negligible relative to quadrant-sized work.)")
	wakeTable()
}

// wakeTable prints what it costs this runtime to start an idle worker:
// how long the short timers a polling scheduler would sleep on really
// take on this host, how long a spawn takes to reach a parked worker,
// and — on the serving shape's block wave through a resident plan — when
// the second runner starts, how long the wave takes and how busy the
// pool is, at 1 and W workers. Start offsets come from traced calls (the
// first wave-item span on each worker track), walls and utilization from
// untraced ones.
func wakeTable() {
	fmt.Println("\nwake-up latency on this host")
	pcts := func(d []float64) string {
		sort.Float64s(d)
		return fmt.Sprintf("p50 %7.1f µs  (p10–p90 %.1f–%.1f)", 1e6*d[len(d)/2], 1e6*d[len(d)/10], 1e6*d[len(d)*9/10])
	}
	var after, sleep, spawn []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		<-time.After(200 * time.Microsecond)
		after = append(after, time.Since(t0).Seconds())
	}
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		time.Sleep(20 * time.Microsecond)
		sleep = append(sleep, time.Since(t0).Seconds())
	}
	fmt.Printf("  %-36s %s\n", "time.After(200µs) returns after", pcts(after))
	fmt.Printf("  %-36s %s\n", "time.Sleep(20µs) returns after", pcts(sleep))
	pool := sched.NewPool(2)
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond) // both workers go idle
		var t0 time.Time
		var started atomic.Int64
		_, _, err := pool.Run(func(c *sched.Ctx) {
			t0 = time.Now()
			c.Parallel(
				func(*sched.Ctx) {
					for started.Load() == 0 {
						runtime.Gosched()
					}
				},
				func(*sched.Ctx) { started.Store(int64(time.Since(t0)) + 1) })
		})
		check(err)
		spawn = append(spawn, time.Duration(started.Load()).Seconds())
	}
	pool.Close()
	fmt.Printf("  %-36s %s\n", "spawn → start on an idle worker", pcts(spawn))

	fmt.Printf("\nstream wave %dx%d · %dx%d through a resident plan (GEMMPrepacked), medians of %d calls, %d traced\n",
		streamM, streamM, streamM, streamN, streamCalls, tracedCalls)
	fmt.Printf("%-8s %10s %12s %11s %11s %30s\n", "workers", "wave wall", "utilization", "parks/call", "wakes/call", "2nd runner starts after (traced)")
	for _, w := range []int{1, min(runtime.NumCPU(), workerCap())} {
		s := newStream(w)
		pb, err := s.eng.PrepackConforming(s.B, false, s.opts, s.plan)
		check(err)
		wave := func() (float64, *recmat.Report) {
			t0 := time.Now()
			rep, err := s.eng.GEMMPrepackedOpts(context.Background(), s.opts, 1, s.plan, pb, 0, s.C)
			check(err)
			return time.Since(t0).Seconds(), rep
		}
		// A process's first second of waves can run with both runners'
		// threads stacked on one CPU (EXPERIMENTS.md); measure after it.
		for r := 0; r < 2*streamCalls; r++ {
			wave()
		}
		var wall, util, parks, wakes, second []float64
		for r := 0; r < streamCalls; r++ {
			t, rep := wave()
			wall, util = append(wall, t), append(util, rep.Utilization)
			parks, wakes = append(parks, float64(rep.Parks)), append(wakes, float64(rep.Wakes))
		}
		late := "-"
		if w > 1 {
			for len(second) < tracedCalls {
				var buf bytes.Buffer
				check(s.eng.EnableTracing(&buf))
				for r := 0; r <= tracedBurst; r++ {
					wave()
				}
				check(s.eng.DisableTracing())
				second = append(second, secondRunnerStarts(buf.Bytes())...)
			}
			sort.Float64s(second)
			late = fmt.Sprintf("p50 %.0f µs  p90 %.0f µs", second[len(second)/2], second[len(second)*9/10])
		}
		fmt.Printf("%-8d %7.3f ms %12.2f %11.1f %11.1f %30s\n", w, 1e3*medianOf(wall), medianOf(util), medianOf(parks), medianOf(wakes), late)
		pb.Release()
		s.close()
	}
	fmt.Println("(a worker out of work parks on the pool's wake channel and a spawn")
	fmt.Println(" hands it a token, so the second runner starts a thread wake-up after")
	fmt.Println(" the first; a scheduler that polled on the timers above would start it")
	fmt.Println(" half a timer period late on average, and past the end of a 2 ms wave")
	fmt.Println(" at the p90. A wave one worker takes alone counts as the wave's wall.)")
}

// wakeTable traces tracedCalls stream waves, in bursts of tracedBurst
// back-to-back calls after one that is not counted: a wave that follows
// a pause finds the idle workers in another state than one that follows
// a wave, and a stream is the second kind. A burst fits the tracer's
// rings (~2,100 events a worker a wave, 16,384 slots).
const tracedCalls, tracedBurst = 60, 5

// secondRunnerStarts reads a traced burst of waves: for each compute
// phase but the first, the gap in µs between the first wave-item span
// on the first worker track to carry one and the first on the second —
// or the whole extent of the wave's items if one worker ran every block.
func secondRunnerStarts(trace []byte) []float64 {
	type event struct {
		Name    string
		Tid     int64
		TS, Dur float64
	}
	var tr struct{ TraceEvents []event }
	check(json.Unmarshal(trace, &tr))
	var waves, items []event
	for _, e := range tr.TraceEvents {
		switch e.Name {
		case "compute":
			waves = append(waves, e)
		case "wave-item":
			items = append(items, e)
		}
	}
	sort.Slice(waves, func(i, j int) bool { return waves[i].TS < waves[j].TS })
	var gaps []float64
	for _, w := range waves[1:] {
		first := map[int64]float64{}
		lo, hi := w.TS+w.Dur, w.TS
		for _, e := range items {
			if e.TS < w.TS || e.TS > w.TS+w.Dur {
				continue
			}
			if t, ok := first[e.Tid]; !ok || e.TS < t {
				first[e.Tid] = e.TS
			}
			lo, hi = min(lo, e.TS), max(hi, e.TS+e.Dur)
		}
		starts := make([]float64, 0, len(first))
		for _, t := range first {
			starts = append(starts, t)
		}
		sort.Float64s(starts)
		if len(starts) < 2 {
			gaps = append(gaps, hi-lo)
		} else {
			gaps = append(gaps, starts[1]-starts[0])
		}
	}
	return gaps
}

// dilation prints the Section 3.4 dilation statistics of every layout:
// jump counts and sizes along the curve, directional neighbor stretch,
// and the axis-asymmetry that distinguishes canonical from recursive
// layouts.
func dilation() {
	header("Section 3.4 — dilation statistics of the layout functions (64x64 grid)")
	fmt.Printf("%-12s %8s %8s %8s %10s %10s %10s\n",
		"layout", "jumps", "maxjump", "avgstep", "rowstretch", "colstretch", "asymmetry")
	for _, c := range layout.Curves {
		d := layout.MeasureDilation(c, 6)
		fmt.Printf("%-12v %8d %8d %8.3f %10.2f %10.2f %10.1f\n",
			c, d.Jumps, d.MaxJump, d.AvgStep, d.AvgRowStretch, d.AvgColStretch, d.Asymmetry())
	}
	fmt.Println("(Hilbert walks with no jumps; jump size and frequency shrink as the")
	fmt.Println(" orientation count grows, as Section 3.4 observes. The canonical")
	fmt.Println(" layouts are maximally asymmetric — unit stretch on the favored")
	fmt.Println(" axis, 2^d on the other — while every recursive layout keeps the")
	fmt.Println(" two directions within a factor of two.)")
}

// autoparity is the gate behind `make parity`: with the library's
// defaults — the host's default kernel, the crossover rule's fast cutoff
// — Algorithm Auto must not be slower than Standard. The variants of a
// row are interleaved, the order alternating, and compared by the median
// of the paired time ratios, which a drift of the host's speed during
// the run cancels out of. It prints what Auto resolved to, so that a
// wrong rule is visible and not just slow. The rows that name a kernel
// are ones where the rule admits a fast level at a size this can run,
// whatever the host's default family; and at the largest size Winograd
// runs by name at the rule's cutoff and at half of it, which is how a
// rule that has become a level too cautious shows.
func autoparity() {
	const slack = 1.05
	eng := recmat.NewEngine(*workers)
	defer eng.Close()
	fmt.Printf("auto vs standard: default kernel unless named, the rule's cutoff, %d workers\n", eng.Workers())
	fmt.Printf("%-18s %-9s %-9s %-9s %7s %7s %6s %10s %10s %8s\n",
		"shape", "layout", "kernel", "auto ran", "cutoff", "levels", "pairs", "auto GF/s", "std GF/s", "t ratio")
	failed := false
	for _, c := range []struct {
		n      int
		lo     recmat.Layout
		kernel string
	}{{1024, recmat.ZMorton, ""}, {2048, recmat.ZMorton, ""}, {256, recmat.ColMajor, ""},
		{2048, recmat.ZMorton, "avx2"}, {1024, recmat.ZMorton, "packed8x4"}} {
		if _, err := leaf.Get(c.kernel); c.kernel != "" && err != nil {
			continue // a family this host does not register
		}
		rng := rand.New(rand.NewSource(*seed))
		A, B, C := recmat.Random(c.n, c.n, rng), recmat.Random(c.n, c.n, rng), recmat.NewMatrix(c.n, c.n)
		opt := func(alg recmat.Algorithm, cutoff int) *recmat.Options {
			return &recmat.Options{Layout: c.lo, Algorithm: alg, KernelName: c.kernel, FastCutoff: cutoff}
		}
		const std, auto, atRule, atHalf = 0, 1, 2, 3
		vs := []*recmat.Options{opt(recmat.Standard, 0), opt(recmat.Auto, 0)}
		rep := make([]*recmat.Report, 4)
		mul := func(i int) float64 {
			t0 := time.Now()
			r, err := eng.Mul(C, A, B, vs[i])
			check(err)
			rep[i] = r
			return time.Since(t0).Seconds()
		}
		mul(auto) // warm-up: buffer pools, arena
		if c.n == 2048 {
			rule := rep[auto].FastCutoff
			vs = append(vs, opt(recmat.Winograd, rule), opt(recmat.Winograd, max(rule/2, 1)))
		}
		// At least nine rounds, and enough of them to fill three seconds a
		// side: on a shared host the median over nine 256³ multiplies, a
		// few milliseconds each, is noise.
		nreps := max(*reps, 9, int(3/mul(std)))
		t := make([][]float64, len(vs))
		for r := 0; r < nreps; r++ {
			for j := range vs {
				i := j
				if r%2 == 1 {
					i = len(vs) - 1 - j
				}
				t[i] = append(t[i], mul(i))
			}
		}
		over := func(i, j int) float64 { // median paired time ratio, variant i over j
			ratio := make([]float64, nreps)
			for r := range ratio {
				ratio[r] = t[i][r] / t[j][r]
			}
			return medianOf(ratio)
		}
		gf := 2 * float64(c.n) * float64(c.n) * float64(c.n) / 1e9
		verdict := ""
		if over(auto, std) > slack {
			verdict, failed = "  SLOWER", true
		}
		fmt.Printf("%-18s %-9v %-9s %-9v %7d %7d %6d %10.1f %10.1f %8.3f%s\n", fmt.Sprintf("%d^3", c.n), c.lo, rep[auto].Kernel,
			rep[auto].Alg, rep[auto].FastCutoff, rep[auto].FastLevels, nreps, gf/medianOf(t[auto]), gf/medianOf(t[std]), over(auto, std), verdict)
		if len(vs) > atHalf {
			note := ""
			if over(atHalf, atRule) < 1/slack && over(atHalf, std) < 1/slack {
				note = "  rule conservative by a level"
			}
			for _, v := range []struct {
				i    int
				what string
			}{{atRule, "rule"}, {atHalf, "rule/2" + note}} {
				fmt.Printf("%-18s winograd at cutoff %d, %d levels, over standard: %.3f  %s\n", "",
					rep[v.i].FastCutoff, rep[v.i].FastLevels, over(v.i, std), v.what)
			}
		}
	}
	if failed {
		fmt.Printf("FAIL: auto is more than %.0f%% slower than standard\n", (slack-1)*100)
		os.Exit(1)
	}
	fmt.Println("ok: auto is never more than 5% slower than standard")
}
