package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	recmat "repro"
	"repro/internal/leaf"
)

// inproc is one in-process workload: a closed loop with one caller
// issuing ops against an Engine. op with a nil tracer is the fused form
// a user calls (one Engine.DGEMM, one stream step, one wave); with a
// tracer it issues the same work as its separate layer calls, each in a
// span.
type inproc struct {
	flops   float64 // useful flops of one op: 2·m·k·n of the unpadded problem
	prepare func(e *recmat.Engine) error
	op      func(e *recmat.Engine, i int, tr *tracer) (*recmat.Report, error)
	// check verifies the output op i just produced.
	check func(i int, rng *rand.Rand) error
	// small runs a small instance through the same entry point and
	// compares the whole result with RefGEMM.
	small func(e *recmat.Engine) error
	// after runs once at the end of a traced window (batch-small loops
	// its items through Engine.DGEMM there).
	after func(e *recmat.Engine, tr *tracer) error
	// totals counts the items batch-small's waves scheduled and completed.
	totals struct{ scheduled, completed int }
}

func newInproc(name string, sz sizes, seed int64) (*inproc, error) {
	switch name {
	case "dense-square":
		return newSquare(sz, recmat.Standard, seed), nil
	case "fast-auto":
		return newSquare(sz, recmat.Auto, seed), nil
	case "stream-percall":
		return newStream(sz, false, seed), nil
	case "stream-prepacked":
		return newStream(sz, true, seed), nil
	case "batch-small":
		return newBatch(sz, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newSquare is dense-square and fast-auto: C ← A·B, n×n×n, column-major
// in and out, ZMorton inside.
func newSquare(sz sizes, alg recmat.Algorithm, seed int64) *inproc {
	n := sz.square
	rng := rand.New(rand.NewSource(seed))
	A, B, C := recmat.Random(n, n, rng), recmat.Random(n, n, rng), recmat.NewMatrix(n, n)
	opts := &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg}
	w := &inproc{flops: 2 * float64(n) * float64(n) * float64(n)}
	w.op = func(e *recmat.Engine, i int, tr *tracer) (*recmat.Report, error) {
		if tr == nil {
			return e.DGEMM(false, false, 1, A, B, 0, C, opts)
		}
		id := int64(i)
		op := tr.begin("op", 0, -1, id)
		defer tr.end(op)
		s := tr.begin("convert.pack", 0, op, id)
		pa, err := e.Pack(A, opts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("convert.pack", 0, op, id)
		pb, err := e.Pack(B, opts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("core.result", 0, op, id)
		pc, err := e.NewPackedResult(pa, pb)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("core.multiled", 0, op, id)
		rep, err := e.MulPacked(pc, pa, pb, opts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("convert.unpack", 0, op, id)
		out, err := pc.Unpack(e)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		C = out
		return rep, nil
	}
	w.check = func(_ int, rng *rand.Rand) error { return freivalds(A, B, C, rng) }
	w.small = func(e *recmat.Engine) error {
		m, k, n := sz.smallCheck, sz.smallCheck-7, sz.smallCheck+9
		a, b, c := recmat.Random(m, k, rng), recmat.Random(k, n, rng), recmat.NewMatrix(m, n)
		if _, err := e.DGEMM(false, false, 1, a, b, 0, c, opts); err != nil {
			return err
		}
		return refCheck(1, a, b, 0, recmat.NewMatrix(m, n), c)
	}
	return w
}

// newStream is stream-percall and stream-prepacked: a fixed A against a
// cycle of skinny B operands. Per call, stream-percall packs A again;
// stream-prepacked reads a plan built once in set-up.
func newStream(sz sizes, prepacked bool, seed int64) *inproc {
	m, n := sz.streamM, sz.streamN
	rng := rand.New(rand.NewSource(seed))
	A := recmat.Random(m, m, rng)
	Bs := make([]*recmat.Matrix, sz.streamCycle)
	for i := range Bs {
		Bs[i] = recmat.Random(m, n, rng)
	}
	C := recmat.NewMatrix(m, n)
	opts := &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard}
	planOpts := *opts
	planOpts.PartnerDim = n
	w := &inproc{flops: 2 * float64(m) * float64(m) * float64(n)}

	// streamed multiplies one B against a plan of A: the conforming pack,
	// the prepacked GEMM, and the release of B's plan.
	streamed := func(e *recmat.Engine, pa *recmat.Plan, B, C *recmat.Matrix, tr *tracer, op int, id int64) (*recmat.Report, error) {
		s := tr.begin("convert.pack", 0, op, id)
		pb, err := e.PrepackConforming(B, false, opts, pa)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		defer pb.Release()
		s = tr.begin("core.multiled", 0, op, id)
		rep, err := e.GEMMPrepackedOpts(context.Background(), opts, 1, pa, pb, 0, C)
		tr.end(s)
		if err == nil {
			// The C epilogue runs inside the call; its Report times it.
			tr.child("convert.unpack", s, 0, rep.ConvertOut)
		}
		return rep, err
	}
	// percall is what DGEMM pays per call, issued as its layer calls.
	percall := func(e *recmat.Engine, A, B, C *recmat.Matrix, tr *tracer, op int, id int64) (*recmat.Report, error) {
		s := tr.begin("convert.pack", 0, op, id)
		pa, err := e.Prepack(A, false, &planOpts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		defer pa.Release()
		return streamed(e, pa, B, C, tr, op, id)
	}

	var plan *recmat.Plan
	if prepacked {
		w.prepare = func(e *recmat.Engine) (err error) {
			plan, err = e.Prepack(A, false, &planOpts)
			return err
		}
	}
	w.op = func(e *recmat.Engine, i int, tr *tracer) (*recmat.Report, error) {
		B := Bs[i%len(Bs)]
		if !prepacked && tr == nil {
			return e.DGEMM(false, false, 1, A, B, 0, C, opts)
		}
		id := int64(i)
		op := tr.begin("op", 0, -1, id)
		defer tr.end(op)
		if prepacked {
			return streamed(e, plan, B, C, tr, op, id)
		}
		return percall(e, A, B, C, tr, op, id)
	}
	w.check = func(i int, rng *rand.Rand) error { return freivalds(A, Bs[i%len(Bs)], C, rng) }
	w.small = func(e *recmat.Engine) error {
		k := sz.smallCheck
		a, b, c := recmat.Random(k, k, rng), recmat.Random(k, n, rng), recmat.NewMatrix(k, n)
		var err error
		if prepacked {
			_, err = percall(e, a, b, c, nil, -1, 0)
		} else {
			_, err = e.DGEMM(false, false, 1, a, b, 0, c, opts)
		}
		if err != nil {
			return err
		}
		return refCheck(1, a, b, 0, recmat.NewMatrix(k, n), c)
	}
	return w
}

// newBatch is batch-small: distinct small items, one GEMMBatch wave per
// op.
func newBatch(sz sizes, seed int64) *inproc {
	d := sz.batchDim
	rng := rand.New(rand.NewSource(seed))
	items := make([]recmat.GEMMBatchItem, sz.batchItems)
	for i := range items {
		items[i] = recmat.GEMMBatchItem{Alpha: 1,
			A: recmat.Random(d, d, rng), B: recmat.Random(d, d, rng), C: recmat.NewMatrix(d, d)}
	}
	opts := &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard}
	w := &inproc{flops: float64(len(items)) * 2 * float64(d) * float64(d) * float64(d)}
	w.op = func(e *recmat.Engine, i int, tr *tracer) (*recmat.Report, error) {
		s := tr.begin("batch.wave", 0, -1, int64(i))
		rep, errs, err := e.GEMMBatch(context.Background(), items, opts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		w.totals.scheduled += len(items)
		w.totals.completed += rep.Completed
		for j, ierr := range errs {
			if ierr != nil {
				return nil, fmt.Errorf("item %d: %w", j, ierr)
			}
		}
		if rep.Completed != len(items) {
			return nil, fmt.Errorf("wave completed %d of %d items", rep.Completed, len(items))
		}
		return &rep.Stats, nil
	}
	w.check = func(_ int, rng *rand.Rand) error {
		for p := 0; p < 8; p++ {
			it := items[rng.Intn(len(items))]
			if err := freivalds(it.A, it.B, it.C, rng); err != nil {
				return err
			}
		}
		return nil
	}
	w.small = func(e *recmat.Engine) error {
		if _, err := w.op(e, 0, nil); err != nil {
			return err
		}
		for _, it := range items[:min(4, len(items))] {
			if err := refCheck(1, it.A, it.B, 0, recmat.NewMatrix(d, d), it.C); err != nil {
				return err
			}
		}
		return nil
	}
	w.after = func(e *recmat.Engine, tr *tracer) error {
		s := tr.begin("batch.looped", 0, -1, -1)
		defer tr.end(s)
		for _, it := range items {
			if _, err := e.DGEMM(false, false, 1, it.A, it.B, 0, it.C, opts); err != nil {
				return err
			}
		}
		return nil
	}
	return w
}

// setup opens the W-worker engine, builds what the workload prepares
// once, and runs the warm-up ops; setup_s ends when it returns. y is the
// yardstick sample taken then, the first of the window.
func (w *inproc) setup(cfg config, res *childResult) (eng *recmat.Engine, y float64, err error) {
	eng = recmat.NewEngine(cfg.workers)
	if w.prepare != nil {
		if err := w.prepare(eng); err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := w.op(eng, i, nil); err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return eng, res.setupDone(cfg), nil
}

// timedOp runs op i and books it: the first and the last op of a round
// are verified (after the clock stops), and a failed or wrong op counts
// as attempted and failed.
func (w *inproc) timedOp(eng *recmat.Engine, i int, tr *tracer, verify func(ms float64) bool, rng *rand.Rand, res *childResult) (ms float64, rep *recmat.Report, ok bool) {
	t0 := time.Now()
	rep, err := w.op(eng, i, tr)
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	res.Attempted++
	if err == nil && verify(ms) {
		err = w.check(i, rng)
	}
	if err != nil {
		res.fail(fmt.Errorf("op %d: %w", i, err))
		return ms, nil, false
	}
	return ms, rep, true
}

// window is the untraced run: rounds alternate a W-worker and a 1-worker
// engine with only one engine open at a time. The first and the last op
// of every round are verified, between timed ops.
func (w *inproc) window(cfg config, res *childResult) error {
	eng, y0, err := w.setup(cfg, res)
	if err != nil {
		return err
	}
	defer func() { eng.Close() }()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	roundLen := cfg.seconds / roundsPerChild
	next := warmupOps
	for r := 0; r < roundsPerChild; r++ {
		rd := round{Kind: "w"}
		workers := cfg.workers
		if r%2 == 1 {
			rd.Kind, workers = "base", 1
		}
		if r > 0 {
			eng.Close()
			eng = recmat.NewEngine(workers)
			// One untimed op lets the new engine's workers fault in
			// their scratch before the round's clock starts.
			if _, err := w.op(eng, next, nil); err != nil {
				return fmt.Errorf("round %d warm-up: %w", r, err)
			}
			y0 = yardstick(cfg.size.yardSample)
		}
		for first := true; rd.Seconds < roundLen; {
			// One block: ops until yardEvery of op time or the round's end.
			var lat []float64
			var flops, secs float64
			for secs < yardEvery.Seconds() && rd.Seconds+secs < roundLen {
				// The op that crosses the round's end is its last.
				ends := func(ms float64) bool { return first || rd.Seconds+secs+ms/1e3 >= roundLen }
				ms, _, ok := w.timedOp(eng, next, nil, ends, rng, res)
				first = false
				next++
				secs += ms / 1e3
				if ok {
					flops += w.flops
					lat = append(lat, ms)
				}
			}
			y1 := yardstick(cfg.size.yardSample)
			rd.book(speedOf(cfg.workload, y0, y1), flops, secs, lat)
			y0 = y1
		}
		res.Rounds = append(res.Rounds, rd)
	}
	res.Attempted++
	if err := w.small(eng); err != nil {
		res.fail(fmt.Errorf("small instance: %w", err))
	}
	return nil
}

// traced is the traced run: the fused op and the same work issued as
// layer calls in spans alternate op by op, both at W workers, so the two
// forms see the same machine state. The per-workload (⁺) layer metrics
// come from the spans, the Reports and runtime.MemStats.
func (w *inproc) traced(cfg config, res *childResult) error {
	eng, y0, err := w.setup(cfg, res)
	if err != nil {
		return err
	}
	defer eng.Close()
	tr := newTracer()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))

	var fusedMS, tracedMS []float64
	var tracedOps []int64
	var reports []*recmat.Report
	var mallocs, allocBytes []float64
	var before, after, ms0, ms1 runtime.MemStats
	yard := []float64{y0}
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	next := warmupOps
	sinceYard := 0.0
	for spent := 0.0; spent < cfg.seconds; next += 2 {
		if sinceYard >= float64(yardEvery/time.Millisecond) {
			yard = append(yard, yardstick(cfg.size.yardSample))
			sinceYard = 0
		}
		first := spent == 0
		ends := func(ms float64) bool { return first || spent+ms/1e3 >= cfg.seconds }
		runtime.ReadMemStats(&before)
		ms, rep, ok := w.timedOp(eng, next, nil, ends, rng, res)
		runtime.ReadMemStats(&after)
		spent += ms / 1e3
		if ok {
			mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
			allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
			fusedMS = append(fusedMS, ms)
			reports = append(reports, rep)
		}
		sinceYard += ms
		ms, _, ok = w.timedOp(eng, next+1, tr, ends, rng, res)
		spent += ms / 1e3
		sinceYard += ms
		if ok {
			tracedMS = append(tracedMS, ms)
			tracedOps = append(tracedOps, int64(next+1))
		}
	}
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if w.after != nil {
		if err := w.after(eng, tr); err != nil {
			res.Attempted++
			res.fail(fmt.Errorf("looped pass: %w", err))
		}
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if len(fusedMS) == 0 || len(tracedMS) == 0 {
		return fmt.Errorf("traced window of %.2fs completed no op in one of its forms", cfg.seconds)
	}

	// Per traced op, each layer's self time.
	self := tr.selfByOp()
	var pack, mul, unpack []float64
	for _, id := range tracedOps {
		m := self[id]
		pack = append(pack, m["convert.pack"])
		mul = append(mul, m["core.multiled"]+m["batch.wave"])
		unpack = append(unpack, m["convert.unpack"])
	}
	L := map[string]float64{}
	fused, decomposed := median(fusedMS), median(tracedMS)
	packMS, mulMS, unpackMS := median(pack), median(mul), median(unpack)
	L["convert.pack_ms"] = packMS
	L["convert.unpack_ms"] = unpackMS
	L["convert.share"] = ratio(packMS+unpackMS, decomposed)
	L["core.multiled_ms"] = mulMS
	L["core.multiled_gflops"] = ratio(w.flops, mulMS*1e6)
	L["core.driver_overhead_ms"] = fused - (packMS + mulMS + unpackMS)
	L["harness.trace_overhead_pct"] = (ratio(decomposed, fused) - 1) * 100
	L["core.allocs_per_op"] = median(mallocs)
	L["core.alloc_kb_per_op"] = median(allocBytes) / 1024

	// From the fused op's own Reports.
	var share, spawns, steals, util, par []float64
	for _, rep := range reports {
		share = append(share, ratio(float64(rep.ConvertIn+rep.ConvertOut), float64(rep.Total())))
		spawns = append(spawns, float64(rep.Spawns))
		steals = append(steals, float64(rep.Steals))
		util = append(util, rep.Utilization)
		par = append(par, rep.Parallelism())
	}
	L["convert.report_share"] = mean(share)
	L["sched.spawns_per_op"] = mean(spawns)
	L["sched.steals_per_op"] = mean(steals)
	L["sched.utilization"] = mean(util)
	L["sched.parallelism"] = mean(par)

	rep := reports[len(reports)-1]
	padded := float64(max(rep.Blocks, 1)) * 2 * float64(rep.PaddedM) * float64(rep.PaddedK) * float64(rep.PaddedN)
	tileGF := leafTileGflops(rep.TileM, rep.TileN, rep.TileK)
	L["tile.useful_flop_ratio"] = ratio(w.flops, padded)
	L["leaf.tile_gflops"] = tileGF
	L["leaf.est_share"] = ratio(padded/(tileGF*1e9*float64(cfg.workers)), fused/1e3)
	L["core.leaf_efficiency"] = ratio(L["core.multiled_gflops"], float64(cfg.workers)*tileGF)
	L["core.arena_mb"] = float64(rep.ArenaBytes) / (1 << 20)
	work, span := recmat.WorkSpan(rep.Alg, rep.Depth, rep.TileM)
	L["sched.analytic_parallelism"] = recmat.Parallelism(work, span)
	L["machine.host_speed"] = hostSpeed(cfg.workload, yard)
	procMetrics(L, &ms0, &ms1, wall)
	res.Layer = L
	res.Info = map[string]any{
		"kernel_ran": rep.Kernel, "alg_ran": rep.Alg.String(), "depth": rep.Depth,
		"tile":          fmt.Sprintf("%dx%dx%d", rep.TileM, rep.TileK, rep.TileN),
		"padded":        fmt.Sprintf("%dx%dx%d", rep.PaddedM, rep.PaddedK, rep.PaddedN),
		"blocks":        rep.Blocks,
		"fused_p50_ms":  fused,
		"traced_p50_ms": decomposed,
		"fused_ops":     len(fusedMS), "traced_ops": len(tracedMS),
	}
	return nil
}

// leafTileGflops times leaf.Auto on one contiguous, cache-resident
// tm×tk · tk×tn tile product on the calling goroutine.
func leafTileGflops(tm, tn, tk int) float64 {
	if tm <= 0 || tn <= 0 || tk <= 0 {
		return 0
	}
	impl := leaf.Auto(tm, tn, tk)
	rng := rand.New(rand.NewSource(1))
	a, b, c := make([]float64, tm*tk), make([]float64, tk*tn), make([]float64, tm*tn)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	flops := 2 * float64(tm) * float64(tn) * float64(tk)
	var best float64
	for trial := 0; trial < 5; trial++ {
		clear(c)
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 4*time.Millisecond {
			for i := 0; i < 16; i++ {
				impl.Kern(tm, tn, tk, a, tm, b, tk, c, tm)
			}
			reps += 16
		}
		best = max(best, flops*float64(reps)/time.Since(t0).Seconds()/1e9)
	}
	return best
}

// procMetrics fills the proc.* yardsticks of one measured window.
func procMetrics(L map[string]float64, ms0, ms1 *runtime.MemStats, wall float64) {
	L["proc.peak_rss_mb"] = peakRSSMB()
	L["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	L["proc.heap_alloc_mb_per_s"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), wall)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// the Go runtime's Sys total where /proc is not available.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
