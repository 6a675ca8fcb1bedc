package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	recmat "repro"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tile"
)

// The layer probes: micro-measurements of single layers through their
// public functions, the same in every traced run whatever the workload.
// They run in a child process of their own, so their memory (the copy
// arrays above all) does not count in the workload's proc.peak_rss_mb.

// timeMS returns the wall time of f in milliseconds.
func timeMS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// medianMS times reps runs of f after one untimed run.
func medianMS(reps int, f func()) float64 {
	f()
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timeMS(f)
	}
	return median(xs)
}

// interleaved times reps rounds of every f in turn, after one untimed
// round, and returns each f's samples: the variants see the same drift.
func interleaved(reps int, fs ...func()) [][]float64 {
	out := make([][]float64, len(fs))
	for r := -1; r < reps; r++ {
		for i, f := range fs {
			ms := timeMS(f)
			if r >= 0 {
				out[i] = append(out[i], ms)
			}
		}
	}
	return out
}

// probe carries the probes' shared state; the first failure of a call
// that cannot fail on valid input is kept and fails the run.
type probe struct {
	cfg  config
	L    map[string]float64
	info map[string]any
	err  error
}

func (p *probe) must(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// runProbes measures every per-run layer metric.
func runProbes(cfg config, res *childResult) error {
	p := &probe{cfg: cfg, L: map[string]float64{}, info: map[string]any{}}
	p.machine()
	p.matrix()
	p.leafLayoutTile()
	p.sched()
	eng := recmat.NewEngine(cfg.workers)
	p.square(eng)
	p.prepack(eng)
	p.batch(eng)
	eng.Close()
	p.serve(res)
	res.Layer, res.Info = p.L, p.info
	return p.err
}

// llcBytes is the size of the last-level cache the run can claim: the
// highest-level cache CPU 0 reports (32 MiB where sysfs has none).
func llcBytes() int64 {
	best, bestLevel := int64(32<<20), 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && level > bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// memAvailable reads MemAvailable from /proc/meminfo (0 if unknown).
func memAvailable() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemAvailable:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

var sink float64 // keeps probe results live

// machine measures the two yardsticks the layers are read against:
// copy() between arrays of 4× the last-level cache, and a scalar FMA
// loop on one goroutine. Each array is capped at copyMaxMB, because
// first-touching gigabytes costs the run seconds on a virtual machine;
// both sizes are stated in the run's info so a capped reading shows.
func (p *probe) machine() {
	llc := llcBytes()
	want := min(4*llc, int64(p.cfg.size.copyMaxMB)<<20)
	if avail := memAvailable(); avail > 0 {
		want = min(want, avail/8)
	}
	src, dst := make([]float64, want/8), make([]float64, want/8)
	for i := range src {
		src[i] = float64(i)
	}
	ms := medianMS(3, func() { copy(dst, src) })
	sink += dst[len(dst)/2]
	p.L["machine.copy_gbps"] = ratio(float64(want), ms*1e6)
	p.info["llc_mb"] = float64(llc) / (1 << 20)
	p.info["copy_array_mb"] = float64(want) / (1 << 20)
	src, dst = nil, nil
	runtime.GC()

	const n = 1 << 20
	ms = medianMS(3, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7
		x, y := 0.999999, 1e-9
		for i := 0; i < n; i++ {
			a0 = math.FMA(a0, x, y)
			a1 = math.FMA(a1, x, y)
			a2 = math.FMA(a2, x, y)
			a3 = math.FMA(a3, x, y)
			a4 = math.FMA(a4, x, y)
			a5 = math.FMA(a5, x, y)
			a6 = math.FMA(a6, x, y)
			a7 = math.FMA(a7, x, y)
		}
		sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	p.L["machine.scalar_fma_gflops"] = ratio(2*8*n, ms*1e6)
}

func (p *probe) matrix() {
	buf := make([]float64, 1<<20)
	ms := medianMS(5, func() { recmat.SeedFill(buf, 42) })
	p.L["matrix.seedfill_gbps"] = ratio(8*float64(len(buf)), ms*1e6)

	n := p.cfg.size.square / 4
	A, B, C := recmat.RandomSeeded(n, n, 1), recmat.RandomSeeded(n, n, 2), recmat.NewMatrix(n, n)
	ms = medianMS(3, func() { recmat.RefGEMM(false, false, 1, A, B, 0, C) })
	p.L["matrix.ref_gflops"] = ratio(2*float64(n)*float64(n)*float64(n), ms*1e6)
	p.info["ref_gemm_n"] = n
}

func (p *probe) leafLayoutTile() {
	n := p.cfg.size.square
	ch := tile.DefaultConfig.Pick(n, n, n)
	cal := make([]float64, 3)
	for i := range cal {
		leaf.ResetCalibration()
		cal[i] = timeMS(func() { leaf.Calibrate(ch.Tiles[0], ch.Tiles[2], ch.Tiles[1]) })
	}
	p.L["leaf.calibrate_ms"] = median(cal)

	const d, idx = 10, 1 << 16
	for name, c := range map[string]layout.Curve{"layout.sinverse_ns": layout.ZMorton, "layout.sinverse_hilbert_ns": layout.Hilbert} {
		ms := medianMS(3, func() {
			var acc uint32
			for s := uint64(0); s < idx; s++ {
				i, j := c.SInverse(s*13%(1<<(2*d)), d)
				acc += i ^ j
			}
			sink += float64(acc)
		})
		p.L[name] = ms * 1e6 / idx
	}

	shapes := [][3]int{{n, n, n}, {n, n, 48}, {64, 64, 64}, {n/2 + 7, n / 3, 200}}
	const picks = 2000
	ms := medianMS(3, func() {
		for i := 0; i < picks; i++ {
			s := shapes[i%len(shapes)]
			sink += float64(tile.DefaultConfig.Pick(s[0], s[1], s[2]).D)
		}
	})
	p.L["tile.pick_us"] = ms * 1e3 / picks
}

func (p *probe) sched() {
	pool := sched.NewPool(p.cfg.workers)
	defer pool.Close()
	var tree func(c *sched.Ctx, leaves int)
	tree = func(c *sched.Ctx, leaves int) {
		if leaves <= 1 {
			return
		}
		c.Parallel(
			func(c *sched.Ctx) { tree(c, leaves/2) },
			func(c *sched.Ctx) { tree(c, leaves/2) },
		)
	}
	leaves := p.cfg.size.spawnLeaves
	ms := medianMS(5, func() {
		_, _, err := pool.Run(func(c *sched.Ctx) { tree(c, leaves) })
		p.must(err)
	})
	p.L["sched.spawn_ns"] = ms * 1e6 / float64(2*leaves-2)

	const runs = 2000
	ms = medianMS(3, func() {
		for i := 0; i < runs; i++ {
			_, _, err := pool.Run(func(*sched.Ctx) {})
			p.must(err)
		}
	})
	p.L["sched.run_us"] = ms * 1e3 / runs
}

// square holds the probes on the dense-square operands: conversion
// bandwidth, the paper's layout axis, the fast/standard inversion and
// the engine tracer's cost.
func (p *probe) square(eng *recmat.Engine) {
	n := p.cfg.size.square
	A, B, C := recmat.RandomSeeded(n, n, 3), recmat.RandomSeeded(n, n, 4), recmat.NewMatrix(n, n)
	bytes := 8 * float64(n) * float64(n)
	z := &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard}

	var pa *recmat.Packed
	ms := medianMS(5, func() {
		var err error
		pa, err = eng.Pack(A, z)
		p.must(err)
	})
	if p.err != nil {
		return
	}
	p.L["convert.pack_gbps"] = ratio(bytes, ms*1e6)
	ms = medianMS(5, func() {
		_, err := pa.Unpack(eng)
		p.must(err)
	})
	p.L["convert.unpack_gbps"] = ratio(bytes, ms*1e6)

	dgemm := func(o *recmat.Options) func() {
		return func() {
			_, err := eng.DGEMM(false, false, 1, A, B, 0, C, o)
			p.must(err)
		}
	}
	lay := interleaved(5,
		dgemm(z),
		dgemm(&recmat.Options{Layout: recmat.ColMajor, Algorithm: recmat.Standard}),
		dgemm(&recmat.Options{Layout: recmat.Hilbert, Algorithm: recmat.Standard}))
	zms := median(lay[0])
	spread := ratio(percentile(lay[0], 100)-percentile(lay[0], 0), zms)
	for i, name := range []string{"layout.colmajor_over_zmorton", "layout.hilbert_over_zmorton"} {
		r := ratio(median(lay[i+1]), zms)
		p.L[name] = r
		if math.Abs(r-1) <= spread {
			p.info[name] = "indistinguishable"
		}
	}
	p.info["layout_spread"] = spread

	pb, err := eng.Pack(B, z)
	p.must(err)
	if p.err != nil {
		return
	}
	pc, err := eng.NewPackedResult(pa, pb)
	p.must(err)
	if p.err != nil {
		return
	}
	mul := func(alg recmat.Algorithm) func() {
		o := &recmat.Options{Layout: recmat.ZMorton, Algorithm: alg}
		return func() {
			_, err := eng.MulPacked(pc, pa, pb, o)
			p.must(err)
		}
	}
	alg := interleaved(5, mul(recmat.Auto), mul(recmat.Standard))
	p.L["core.fast_over_standard"] = ratio(median(alg[0]), median(alg[1]))

	var on, off []float64
	for r := -1; r < 5; r++ {
		a := timeMS(dgemm(z))
		p.must(eng.EnableTracing(io.Discard))
		b := timeMS(dgemm(z))
		p.must(eng.DisableTracing()) // the export runs here, after the timed call
		if r >= 0 {
			off, on = append(off, a), append(on, b)
		}
	}
	p.L["obs.engine_trace_overhead_pct"] = (ratio(median(on), median(off)) - 1) * 100
}

// prepack measures the plan layer on the stream workloads' operands.
func (p *probe) prepack(eng *recmat.Engine) {
	m, n := p.cfg.size.streamM, p.cfg.size.streamN
	A, B, C := recmat.RandomSeeded(m, m, 5), recmat.RandomSeeded(m, n, 6), recmat.NewMatrix(m, n)
	opts := &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard}
	planOpts := *opts
	planOpts.PartnerDim = n
	var plan *recmat.Plan
	p.L["prepack.build_ms"] = medianMS(3, func() {
		if plan != nil {
			plan.Release()
		}
		var err error
		plan, err = eng.Prepack(A, false, &planOpts)
		p.must(err)
	})
	if p.err != nil {
		return
	}
	defer plan.Release()
	p.L["prepack.plan_mb"] = float64(plan.Bytes()) / (1 << 20)

	// Each round: one per-call DGEMM, then the same product through the
	// plan as its two steps.
	var pb *recmat.Plan
	steps := interleaved(8,
		func() {
			_, err := eng.DGEMM(false, false, 1, A, B, 0, C, opts)
			p.must(err)
		},
		func() {
			var err error
			pb, err = eng.PrepackConforming(B, false, opts, plan)
			p.must(err)
		},
		func() {
			if pb == nil {
				return
			}
			_, err := eng.GEMMPrepackedOpts(context.Background(), opts, 1, plan, pb, 0, C)
			p.must(err)
			pb.Release()
		})
	p.L["prepack.conform_ms"] = median(steps[1])
	p.L["prepack.gemm_ms"] = median(steps[2])
	p.L["prepack.speedup_vs_percall"] = ratio(median(steps[0]), median(steps[1])+median(steps[2]))
}

// batch measures the wave against the same items looped through
// Engine.DGEMM.
func (p *probe) batch(eng *recmat.Engine) {
	w := newBatch(p.cfg.size, p.cfg.seed)
	items := float64(p.cfg.size.batchItems)
	steps := interleaved(4,
		func() {
			_, err := w.op(eng, 0, nil)
			p.must(err)
		},
		func() { p.must(w.after(eng, nil)) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.op(eng, 0, nil)
	runtime.ReadMemStats(&after)
	p.must(err)
	p.L["batch.per_item_us"] = median(steps[0]) * 1e3 / items
	p.L["batch.looped_per_item_us"] = median(steps[1]) * 1e3 / items
	p.L["batch.speedup_vs_looped"] = ratio(median(steps[1]), median(steps[0]))
	p.L["batch.allocs_per_item"] = float64(after.Mallocs-before.Mallocs) / items
	p.L["batch.completed_ratio"] = ratio(float64(w.totals.completed), float64(w.totals.scheduled))
}

// Shares of cfg.seconds the daemon probe gives its closed loop and each
// of its open-loop rates.
const closedShare, openShare = 0.1, 0.1

// serve measures the daemon layer: the handler in-process against one
// loopback connection, a closed loop, and the open loop at every fixed
// rate.
func (p *probe) serve(res *childResult) {
	cfg := p.cfg
	l := newServeLoad(cfg.size, cfg.seed)
	d, err := startDaemon(cfg.workers, cfg.conns)
	p.must(err)
	if err != nil {
		return
	}
	defer func() { p.must(d.stop()) }()
	if err := l.warm(d); err != nil {
		p.must(err)
		return
	}
	// Spec by spec, the handler in-process and then the same request
	// over the wire (serial, so it rides one keep-alive connection).
	hp, httpPass := &phase{}, &phase{}
	for i := range l.specs {
		hp.samples = append(hp.samples, l.handle(d.srv, i, nil))
		ts := time.Now()
		resp, err := d.client.Do(context.Background(), &l.specs[i])
		httpPass.samples = append(httpPass.samples, sample{spec: i, ms: float64(time.Since(ts)) / 1e6, resp: resp, err: err})
	}
	secs := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }
	closed := l.closed(d, cfg.conns, 0, secs(closedShare), nil)
	open := map[int]*phase{}
	for _, rate := range openRates {
		open[rate] = l.open(d, cfg.conns, rate, secs(openShare))
	}

	l.reference()
	all := []*phase{hp, httpPass, closed}
	for _, rate := range openRates {
		all = append(all, open[rate])
	}
	var attempted, shed float64
	for _, ph := range all {
		l.verify(ph, res)
		for _, s := range ph.samples {
			attempted++
			var api *serve.APIError
			if errors.As(s.err, &api) && api.Info.Kind == serve.KindShed {
				shed++
			}
		}
	}

	L := p.L
	L["serve.handler_p50_ms"] = median(hp.okMS())
	L["serve.http_p50_ms"] = median(httpPass.okMS())
	L["serve.wire_ms"] = L["serve.http_p50_ms"] - L["serve.handler_p50_ms"]
	var phases [len(phaseNames)]float64
	var timed, hits, named, coalesced, degraded float64
	var namedMS, unnamedMS []float64
	for _, s := range closed.samples {
		if s.err != nil {
			continue
		}
		timed++
		for i, v := range phaseNS(s.resp.Timing) {
			phases[i] += float64(v) / 1e6
		}
		if l.specs[s.spec].AName != "" {
			named++
			namedMS = append(namedMS, s.ms)
			if s.resp.PlanCached {
				hits++
			}
		} else {
			unnamedMS = append(unnamedMS, s.ms)
		}
		if s.resp.Coalesced {
			coalesced++
		}
		if len(s.resp.Degraded) > 0 {
			degraded++
		}
	}
	for i, name := range phaseNames {
		L[name+"_ms"] = ratio(phases[i], timed)
	}
	var handlerPhases, handled float64
	for _, s := range hp.samples {
		if s.err == nil {
			handled++
			for _, v := range phaseNS(s.resp.Timing) {
				handlerPhases += float64(v) / 1e6
			}
		}
	}
	L["serve.unattributed_ms"] = mean(hp.okMS()) - ratio(handlerPhases, handled)
	L["serve.named_p50_ms"] = median(namedMS)
	L["serve.unnamed_p50_ms"] = median(unnamedMS)
	L["serve.plan_hit_rate"] = ratio(hits, named)
	L["serve.coalesce_rate"] = ratio(coalesced, timed)
	L["serve.degraded_rate"] = ratio(degraded, timed)
	L["serve.shed_rate"] = ratio(shed, attempted)
	L["serve.closed_rps"] = ratio(float64(len(closed.okMS())), closed.wall)
	var late []float64
	best := 0.0
	for _, rate := range openRates {
		ph := open[rate]
		lim := ph.limitMS()
		for _, s := range ph.samples {
			late = append(late, s.lateMS)
		}
		achieved := ratio(float64(len(ph.okMS())), ph.wall)
		if percentile(lim, 90) <= latencyLimitMS && achieved >= 0.98*float64(rate) {
			best = math.Max(best, float64(rate))
		}
		p.info[fmt.Sprintf("open_r%d_samples", rate)] = len(lim)
		if rate == openRate {
			L["serve.p99_ms_r200"] = percentile(lim, 99)
		}
		L[fmt.Sprintf("serve.p50_ms_r%d", rate)] = percentile(lim, 50)
		L[fmt.Sprintf("serve.p90_ms_r%d", rate)] = percentile(lim, 90)
	}
	L["serve.max_rate_ok_rps"] = best
	L["serve.late_p99_ms"] = percentile(late, 99)
	p.info["closed_requests"] = len(closed.samples)
}
