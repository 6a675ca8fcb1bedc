package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tile"
)

// Options selects the algorithm, layout, kernel, and tuning knobs for a
// GEMM call. The zero value requests the standard algorithm on the
// library's layout with the default leaf kernel and tile configuration.
type Options struct {
	// Curve is the array layout. ColMajor runs the baseline; the five
	// recursive curves run equation (3) layouts. RowMajor is rejected
	// (the paper's multiplication experiments do not use it). The unset
	// layout.Default is resolved by withDefaults.
	Curve layout.Curve
	// Alg is the multiplication algorithm.
	Alg Alg
	// KernelName selects a registered kernel by name (leaf.Names). The
	// empty string selects the default: leaf.Auto's pick for this CPU,
	// one family at every tile shape, the same in every call and process.
	KernelName string
	// Tile is the tile-size configuration; the zero value selects
	// tile.DefaultConfig.
	Tile tile.Config
	// ForceTile, when positive, bypasses tile selection and forces
	// square tiles of exactly this size in every dimension — the knob
	// behind the Figure 4 depth-of-recursion experiment (ForceTile=1
	// reproduces Frens and Wise's element-level layout).
	ForceTile int
	// SerialCutoff is the quadrant size (tiles per side) at or below
	// which the recursion stops spawning and runs one loop over the
	// quadrant's leaves (exec.base), with the bits of spawning down to
	// single tiles; 0 selects the default of 4, 1 spawns at every level
	// like the Cilk code.
	SerialCutoff int
	// FastCutoff is the grid size (tiles per side) at or below which the
	// fast algorithms fall back to the standard recursion. 0 selects the
	// crossover rule's: the smallest grid at which one fast level repays
	// its passes, a function of the call's kernel family, tiles and
	// algorithm (leaf.FastCutoff) and of nothing measured. 1 is the paper's
	// setting — recurse the fast algorithm to single tiles. An algorithm
	// that is not fast (Standard, Standard8) has nothing to fall back
	// from and ignores it.
	FastCutoff int
	// DisableSplit turns off the wide/lean submatrix decomposition of
	// Figure 3, forcing a single (possibly heavily padded) tiling.
	DisableSplit bool
	// MemBudget, when positive, is an admission-control cap in bytes on
	// the estimated footprint of the call (packed operand segments +
	// in-flight product tiles + algorithm temporaries + per-worker
	// kernel scratch). When the requested configuration exceeds it, the
	// driver first has the blocks pack the segments the call would hold
	// as transient plans, each block its own A and B segment (the same
	// bits, more conversion), then degrades along a ladder —
	// Strassen/Winograd → Strassen (serial: every level depth-first, the
	// paper's space-conserving variant) → Standard → Standard (serial) —
	// and records each decision in Stats.Degraded; if even the smallest
	// rung exceeds the budget the call fails with ErrMemBudget before
	// allocating anything.
	MemBudget int64
	// MaxResidualGrowth, when positive, bounds the numerical error
	// growth tolerated from a fast (Strassen-like) algorithm, in units
	// of the standard algorithm's error floor (eps·k·|A|·|B|). Before
	// running a fast algorithm the driver samples a small probe block
	// from the operands, multiplies it with both the fast algorithm and
	// the naive reference, and falls back to Standard (recorded in
	// Stats.Degraded) when the measured growth exceeds this bound.
	// Typical useful values are 8–100; the standard algorithm itself
	// measures ≈1.
	MaxResidualGrowth float64
	// Metrics, when non-nil, receives cumulative per-call metrics
	// (call/error counts, phase-latency and GFLOPS histograms, scheduler
	// and pool counters) — see the metric* names in obs.go. Updates are
	// lock-free; the registry may be shared across pools and engines.
	Metrics *obs.Registry
}

// withDefaults is the prologue every entry point and ResolveAlg pass
// options through. An unset layout becomes Z-Morton, the paper's: on a
// grid of one tile it is canonical storage's bytes, so it needs no grid
// test.
func (o *Options) withDefaults() Options {
	v := *o
	if v.Curve == layout.Default {
		v.Curve = layout.ZMorton
	}
	if v.Tile == (tile.Config{}) {
		v.Tile = tile.DefaultConfig
		if v.KernelName == "" {
			// The default kernel is a packed register-blocked one, so
			// bias tile selection toward sizes its micro-tiles divide
			// evenly (fringe-free leaves).
			v.Tile.MicroM, v.Tile.MicroN = leaf.MicroM, leaf.MicroN
		}
	}
	if v.SerialCutoff <= 0 {
		v.SerialCutoff = 4
	}
	return v
}

// Stats reports what a GEMM call did: conversion and compute wall times
// (the honest cost accounting the paper calls for), the accounted
// work/span of the computation DAG, and the tiling actually used.
type Stats struct {
	// ConvertIn times packing and a fast level's zero-fill (the standard
	// recursion stores its tiles), Compute the recursion and ConvertOut
	// the fused epilogue, 0 when every product went into C in place.
	ConvertIn  time.Duration
	Compute    time.Duration
	ConvertOut time.Duration
	// Work and Span are the accounted flop totals of the task DAG;
	// Work/Span estimates available parallelism as Cilk's critical-path
	// instrumentation did. A split call's block wave is one scheduler
	// run, so its span is the longest runner's chain of blocks.
	Work, Span float64
	// Depth, tile sizes and padded extents of one block multiplication:
	// the plan geometry every block of the call shares.
	Depth                     uint
	TileM, TileK, TileN       int
	PaddedM, PaddedK, PaddedN int
	// Kernel names the leaf kernel that ran: Options.KernelName, or the
	// default for the host's CPU features (leaf.Auto). The
	// register-blocked kernels ("packed8x4", "avx2", "avx512", "neon")
	// round identically; a plain kernel may differ in the last bits.
	Kernel string
	// Blocks counts the sub-multiplications (one per C block and k
	// segment) after wide/lean splitting.
	Blocks int
	// Alg is the algorithm that actually ran — AlgAuto's choice, or a
	// cheaper rung than the requested one when graceful degradation
	// stepped in.
	Alg Alg
	// Layout is the layout the call ran on: Options.Curve, the default's
	// resolution (withDefaults), or a plan's own.
	Layout layout.Curve
	// FastCutoff is the cutoff a fast algorithm ran with — the option
	// verbatim, or the crossover rule's for the call's kernel, tiles and
	// algorithm; 0 when an algorithm that is not fast was named. FastLevels
	// counts the levels of a fast Alg's own recursion the grid ran above
	// it; 0 means the call went straight to a classical one.
	FastCutoff, FastLevels int
	// Serial reports that degradation disabled parallel spawning.
	Serial bool
	// Degraded lists the degradation decisions (memory budget,
	// residual-growth probe) taken for the call, in order; empty means
	// the requested configuration ran unchanged.
	Degraded []string
	// EstimatedBytes is the admission-control footprint estimate of the
	// configuration that ran: the packed segments the call holds at once,
	// in-flight product tiles, arena and kernel scratch; plans the call is
	// given (A, B, and MulPrepacked's C in place of the tiles) count nothing.
	EstimatedBytes int64
	// ArenaBytes is the scratch-arena workspace reserved up front, once
	// per call — the recursion's temporaries are carved from it instead
	// of the heap. 0 means the algorithm needs no temporaries (Standard)
	// or the reservation was declined.
	ArenaBytes int64
	// AllocBytes counts temporary bytes that missed the arena and fell
	// back to the heap. 0 in steady state; non-zero
	// indicates transient over-subscription of a worker's arena stack
	// under work stealing, or a declined reservation.
	AllocBytes int64
	// ConvertBytes counts the packed bytes the call actually converted:
	// operand buffers filled from (or, for the fused epilogue, stored or
	// accumulated back into) column-major storage. Prepacked operands,
	// segments read in place, zero-fills and a C the product goes into in
	// place count nothing: a plan-reusing call reports ≈ 0, an untransposed
	// α = 1, β = 0 product of one small block 0 — Section 4's accounting in bytes.
	ConvertBytes int64
	// PackReused counts operand packs satisfied without reading the
	// column-major source: blocks served by a *Prepacked* plan (two a
	// product when both operands are plans), and second operands derived
	// in-layout from the first (the transposed pack a symmetric α·A·Aᵀ
	// product folds).
	PackReused int
	// PackDeferred counts operand segments brought by the C block that
	// multiplies them, not by a plan: once when a wave's one row or column
	// of blocks consumes them or a product of one block of at most 8 tiles
	// a side reads them in place, once per consumer when MemBudget moved a
	// transient plan to its blocks. On the standard recursion an
	// untransposed segment that needs no padding is read in place; any
	// other is packed into the runner's buffer and counted in ConvertBytes.
	PackDeferred int
	// PoolHits and PoolMisses count tiled-buffer recycling-pool
	// outcomes for the buffers this call acquired; in steady state
	// repeated calls of one shape report PoolMisses == 0.
	PoolHits, PoolMisses int
	// Spawns, Steals, Inline, Parks and Wakes are the scheduler-counter
	// deltas over the call: tasks pushed to deques, tasks executed by a
	// worker other than their spawner, frames run directly at their
	// spawn site, times a worker out of work blocked until an event, and
	// spawns that woke one. Parks well above the wave count say workers
	// sat idle inside the call. The counters are pool-global, so with
	// concurrent callers on one pool the deltas apportion approximately;
	// they are clamped at zero.
	Spawns, Steals, Inline, Parks, Wakes int64
	// Utilization is the fraction of worker·wall time the pool spent
	// executing tasks during the call — busy worker-nanoseconds over
	// workers × call wall time, in (0, 1] for any call that ran work.
	// Pool-global like the scheduler counters: concurrent callers
	// inflate each other's numerator, so the value is clamped at 1.
	Utilization float64
}

// Total returns the end-to-end wall time.
func (s *Stats) Total() time.Duration {
	return s.ConvertIn + s.Compute + s.ConvertOut
}

// Parallelism returns work/span.
func (s *Stats) Parallelism() float64 {
	return sched.Parallelism(s.Work, s.Span)
}

// GEMM computes C ← α·op(A)·op(B) + β·C with the selected algorithm and
// layout, following the Level 3 BLAS dgemm calling convention of
// Section 2.1: A, B, C are column-major with arbitrary leading
// dimensions, and op(X) is X or Xᵀ. Internally it converts the operands
// to the requested layout (padding per Section 4, splitting wide/lean
// shapes per Figure 3), runs the parallel recursive multiplication on
// the pool, and converts the result back.
//
// pool may be nil, in which case a transient pool with one worker per
// CPU is used.
//
// GEMM is GEMMCtx with a background context.
func GEMM(pool *sched.Pool, opts Options, transA, transB bool, alpha float64,
	A, B *matrix.Dense, beta float64, C *matrix.Dense) (*Stats, error) {
	return GEMMCtx(context.Background(), pool, opts, transA, transB, alpha, A, B, beta, C)
}

// GEMMCtx is GEMM with cooperative cancellation and the hardened
// failure contract: it never panics (panics anywhere in the recursion
// are recovered, aggregated with worker-side stacks, and returned as a
// *sched.TaskError), it validates scalars and tilings before touching
// C, and it honors ctx — a cancelled context makes the call return an
// error wrapping ctx's cause within a bounded latency. As in dgemm, C
// must not share storage with A or B: a block may read an operand in
// place while another stores into C.
//
// Failure atomicity: until validation and admission have passed and the
// call's scheduler run has begun, C is untouched (a cancellation that
// lands first says "not started"). Each C block is then written once, by
// an epilogue that applies beta as it folds in the block's product
// (beta == 0 stores C unread), after the block's compute and under no
// cancellation; if the call fails, each block that did not complete is
// β-scaled once every task under it has joined. So C holds the β-scaled
// inputs plus the products of any *completed* blocks — never a partial
// one. The error says how many completed.
func GEMMCtx(ctx context.Context, pool *sched.Pool, opts Options, transA, transB bool, alpha float64,
	A, B *matrix.Dense, beta float64, C *matrix.Dense) (stats *Stats, err error) {

	cl, err := enter(ctx, pool, opts, "GEMM")
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	if err := multipliable(cl.o.Curve); err != nil {
		return nil, err
	}
	if A == nil || B == nil {
		return nil, fmt.Errorf("%w: GEMM with a nil operand", ErrDimension)
	}
	m, k := opShape(A, transA)
	kb, n := opShape(B, transB)
	if err := conform(alpha, beta, m, k, kb, n, C); err != nil {
		return nil, err
	}
	return cl.one(ctx, &wave{items: []BatchItem{{TransA: transA, TransB: transB, Alpha: alpha, A: A, B: B, Beta: beta, C: C}}})
}

// multipliable is the one refusal of the row-major layout, which the
// paper's multiplication experiments do not use: GEMMCtx asks it before
// anything else, planOf (and so ResolveAlg) before it plans.
func multipliable(c layout.Curve) error {
	if c == layout.RowMajor {
		return fmt.Errorf("core: the row-major layout is not supported by the multiplication driver")
	}
	return nil
}

// wave is one run's products, each planned as its single-call twin and
// run through the one member body: the product of GEMMCtx, GEMMPrepacked
// or MulPrepacked, or the items of a GEMMBatch* wave.
type wave struct {
	ctx   context.Context
	what  string // a lone call's entry point, naming its errors; "" in a batch
	gv    given  // how the operands all members share arrive
	items []BatchItem
	// plans holds, by item, what its single-call twin plans: nil for an
	// item refused before it was planned or, once the run is under way,
	// started; a plan without segments for one that multiplies nothing
	// (α = 0, or an empty dimension).
	plans []*plan
	errs  []error
	// live counts the items validated, then those planned; wide: they are
	// the parallelism (asWave), each serial on its runner.
	live int
	wide bool
	// Admission's: the rung, whether the blocks pack what the members
	// would hold as transient plans, and the execution parameters and
	// arena — nil when nothing is multiplied.
	alg              Alg
	serial, consumed bool
	e                *exec
}

// inPlaceSide is the largest grid side, in tiles, of a one-block product
// multiplied where it lies (wave.body): past it, copying repays (-exp inplace).
const inPlaceSide = 8

// aheadMin and aheadMax bound the A+B, in elements, of a member its
// runner prefetches, claimed one ahead (pullWave): 32³ and under lost on
// waves in L3, past 128³ lost or held (EXPERIMENTS.md, "Members prefetched one ahead").
const aheadMin, aheadMax = 2 * 32 * 32, 2 * 128 * 128

// prefetch asks the cache for member i's source views no shared plan
// brings, while its runner multiplies the member in hand.
func (w *wave) prefetch(i int) {
	it, pl := &w.items[i], w.plans[i]
	if pl == nil || pl.ns == nil || pl.k*(pl.m+pl.n) <= aheadMin || pl.k*(pl.m+pl.n) > aheadMax {
		return
	}
	if w.gv.pa == nil {
		leaf.Prefetch(it.A.Data, it.A.Rows, it.A.Cols, it.A.Stride)
	}
	if w.gv.pb == nil {
		leaf.Prefetch(it.B.Data, it.B.Rows, it.B.Cols, it.B.Stride)
	}
}

// nothing is the plan of a member with α = 0: C ← β·C alone.
var nothing = new(plan)

// one runs a lone product: a wave of one, whose member's failure is the call's.
func (cl *call) one(ctx context.Context, w *wave) (*Stats, error) {
	w.ctx, w.what, w.plans, w.errs, w.live = ctx, cl.what, make([]*plan, 1), make([]error, 1), 1
	stats := &Stats{}
	if err := cl.multiply(ctx, stats, w); err != nil {
		return nil, err
	}
	if err := w.errs[0]; err != nil {
		return nil, err
	}
	return stats, nil
}

// multiply is the one run behind every entry point that multiplies: plan
// and admit the members together (planGEMM), then one scheduler run
// pulls them through the one member body — a runner per worker when they
// are the parallelism, one each otherwise. A refusal of the whole run
// (planning, admission, a run that never began) is its error, every C
// untouched; a member's own failure lands in its slot of w.errs.
func (cl *call) multiply(ctx context.Context, stats *Stats, w *wave) error {
	stats.Layout = cl.o.Curve
	if err := planGEMM(cl, stats, w); err != nil || w.live == 0 {
		return err
	}
	e := w.e
	if e == nil {
		e = cl.exec()
	}
	defer releaseArena(e.ar)
	runners := w.live
	switch {
	case w.serial:
		runners = 1
	case w.wide:
		runners = cl.pool.Workers()
	}
	rerr := cl.run(ctx, stats, func(c *sched.Ctx) { pullWave(ctx, c, e, runners, len(w.items), stats, w.step, w.prefetch) })
	if !cl.started {
		return rerr
	}
	// A run-level failure (cancellation, a fault injected into a runner's
	// frame outside any member's recover) is charged only to the members
	// it kept from starting, whose plans step left in place.
	for i, pl := range w.plans {
		if pl != nil && rerr != nil {
			w.errs[i] = w.errf(i, "not started: %w", rerr)
		}
	}
	if w.e != nil {
		if e.ar != nil {
			stats.AllocBytes = 8 * e.ar.fallbackElems.Load()
		}
		cl.finishStats(stats)
	}
	return nil
}

// planGEMM settles a run's once-per-call decisions: plan every member,
// admit their composed charge, and — when MaxResidualGrowth is set — the
// residual probe, whose failure re-plans the whole wave once with
// Standard; every decision is recorded in stats.Degraded. It then
// reserves the arena admission charged (a serial rung stops all
// spawning, so one depth-first path of temporaries and one worker's
// kernel scratch are live), which the caller releases once the run has
// drained, and describes the plan in stats.
func planGEMM(cl *call, stats *Stats, w *wave) error {
	o, workers := cl.o, cl.pool.Workers()
	var notes []string
	for {
		w.plan(o, workers)
		ch, dearest := w.charge(min(w.live, workers))
		if dearest == nil {
			return nil
		}
		ad, err := admit(o, workers, ch)
		if err != nil {
			return err
		}
		notes = append(notes, ad.notes...)
		if note := w.probe(o, ad.alg); note != "" {
			notes, o.Alg = append(notes, note), Standard
			continue
		}
		w.e, w.alg, w.serial, w.consumed = cl.exec(), ad.alg, ad.serial, ad.consumed
		stacks := workers
		if ad.serial {
			stacks = 1
		}
		if ad.serial || w.wide {
			w.e.serialCutoff = noSpawn
		}
		w.e.ar = acquireArenaElems(ad.arena, stacks)
		if tr := cl.tr; tr != nil { // one instant per decision, and the arena's bytes
			for range notes {
				tr.LaneInstant(cl.lane, obs.KindDegrade, 0)
			}
			if w.e.ar != nil {
				tr.LaneInstant(cl.lane, obs.KindArena, w.e.ar.bytes())
			}
		}
		dearest.describe(ad.alg, stats)
		stats.Serial, stats.Degraded, stats.EstimatedBytes, stats.ArenaBytes = ad.serial, notes, ad.est, w.e.ar.bytes()
		return nil
	}
}

// plan plans the items not yet refused as their single-call twins are
// planned: with the pool's workers, so that a member's blocks spread as a
// direct call's do, unless the members are the parallelism (wide).
// Worker count sets only plan.runners, so it moves no bits. Consecutive
// items of one shape share the plan.
func (w *wave) plan(o Options, workers int) {
	if w.wide = asWave(w.live, workers); w.wide {
		workers = 0
	}
	var last *plan
	w.live = 0
	for i := range w.items {
		if w.errs[i] != nil {
			continue
		}
		it := &w.items[i]
		m, k, n := w.shape(it)
		switch {
		case it.Alpha == 0:
			w.plans[i] = nothing
		case last != nil && last.m == m && last.k == k && last.n == n:
			w.plans[i] = last
		default:
			pl, err := planOf(o, workers, w.gv, m, k, n)
			if err != nil {
				w.errs[i] = err
				continue
			}
			w.plans[i], last = pl, pl
		}
		w.live++
	}
}

// shape is item it's m×k×n: op(A)'s extents or the shared A plan's, and
// op(B)'s columns or the given B plan's.
func (w *wave) shape(it *BatchItem) (m, k, n int) {
	if pa := w.gv.pa; pa != nil {
		m, k = pa.Rows, pa.Cols
	} else {
		m, k = opShape(it.A, it.TransA)
	}
	if pb := w.gv.pb; pb != nil {
		return m, k, pb.Cols
	}
	_, n = opShape(it.B, it.TransB)
	return m, k, n
}

// charge composes the run's admission charge from its members' plans: a
// lone member's is its own, unchanged. A wave of several holds, per
// member in flight, the dearest member's transient plan and product
// tiles, with the largest kernel scratch and, rung by rung, the largest
// arena. It runs one algorithm, the fast one if any member keeps a fast
// level: a member that keeps none (AlgAuto's Standard) needs no arena on
// any rung and runs it straight into the standard recursion, the bits of
// its Standard twin. dearest, the member Stats describe, is nil when no
// member multiplies anything.
func (w *wave) charge(inflight int) (ch charge, dearest *plan) {
	members, bill := 0, int64(0)
	for _, pl := range w.plans {
		if pl == nil || pl.ns == nil {
			continue
		}
		if members++; dearest == nil || tableOf(pl.alg).fast() {
			ch.alg = pl.alg
		}
		if b := pl.ch.held + pl.ch.perBlock*int64(pl.ch.inflight); dearest == nil || b > bill {
			bill, dearest = b, pl
		}
		ch.scratch = max(ch.scratch, pl.ch.scratch)
		for r, a := range pl.ch.arena {
			ch.arena[r] = max(ch.arena[r], a)
		}
	}
	if members == 1 {
		return dearest.ch, dearest
	}
	ch.perBlock, ch.inflight = bill, inflight
	ch.what = func() string { return fmt.Sprintf("a wave of %d items", members) }
	return ch, dearest
}

// probe runs the residual probe of alg, when o bounds residual growth and
// the operands are column-major, once per distinct member shape that
// keeps a fast level, on that member's operands and kernel. It returns
// the note of the first whose growth exceeds the bound.
func (w *wave) probe(o Options, alg Alg) string {
	if o.MaxResidualGrowth <= 0 || w.gv.pa != nil {
		return ""
	}
	var probed *plan
	for i, pl := range w.plans {
		if pl == nil || pl == probed || pl.ns == nil || fastLevels(alg, pl.g.side(), pl.cutoff) == 0 {
			continue
		}
		probed = pl
		it := &w.items[i]
		if growth := probeResidualGrowth(pl.kernel, alg, it.TransA, it.TransB, it.A, it.B); growth > o.MaxResidualGrowth {
			return fmt.Sprintf("residual-probe: %v growth %.1f > bound %.1f; degraded to %v",
				alg, growth, o.MaxResidualGrowth, Standard)
		}
	}
	return ""
}

// step is the runner loop's body for member i, under the member's own
// recover: a panic anywhere in its conversions or compute (an aggregated
// *sched.TaskError from its nested products included) lands in its error
// slot, and the runner moves on. Members are claimed exactly once, so
// the writes to its plans and errs slots are race-free.
func (w *wave) step(c *sched.Ctx, ws *waveWS, i int) error {
	pl := w.plans[i]
	if pl == nil { // refused: never scheduled
		return nil
	}
	w.plans[i] = nil // it has started
	ws.fin = ws.fin[:0]
	defer func() {
		if r := recover(); r != nil {
			w.errs[i] = w.errf(i, "failed after %d of %d blocks: %w", ws.completed(), len(ws.fin), recoveredError(r))
		}
	}()
	w.errs[i] = w.body(c, ws, i, pl)
	return nil
}

// body is the one body of a product, run for each member: the packs of
// what gv does not bring — into the runner's reused transient plans
// (repack), UNSCALED (α and β ride in the fused epilogue), deferred to
// the consuming blocks (charge.deferA, deferB, or every segment when
// admission moved the plans there), or folded from A's plan when op(B)
// is op(A)ᵀ (SYRK's GEMM over one matrix in both slots) — then the
// block wave.
func (w *wave) body(c *sched.Ctx, ws *waveWS, i int, pl *plan) error {
	it := &w.items[i]
	// An expired member is dropped from the wave, not the wave from the
	// member; nil means it lives exactly as long as the wave context.
	ctx := it.Ctx
	if ctx == nil {
		ctx = w.ctx
	}
	if c.Cancelled() {
		return w.errf(i, "not started: %w", w.cause())
	}
	if ctx.Err() != nil {
		return w.errf(i, "not started: %w", context.Cause(ctx))
	}
	if pl.ns == nil {
		it.C.Scale(it.Beta)
		return nil
	}
	runners := pl.runners
	if w.serial {
		runners = 0
	}
	gv, g, ch, ms, ks, ns := w.gv, pl.g, &pl.ch, pl.ms, pl.ks, pl.ns
	deferA, deferB := ch.deferA || w.consumed, ch.deferB || w.consumed
	// β rides in each block's epilogue, so a member that fails β-scales
	// the blocks that did not complete once every task under them has
	// joined (β = 1, MulPrepacked's, whose C is a plan, applies nothing).
	ws.fin = append(ws.fin[:0], make([]bool, len(ms)*len(ns))...)
	defer func() {
		for b, done := range ws.fin {
			if sm, sn := ms[b/len(ns)], ns[b%len(ns)]; !done && it.Beta != 1 {
				it.C.View(sm.Off, sn.Off, sm.Len, sn.Len).Scale(it.Beta)
			}
		}
	}()
	ws.e.kernel, ws.e.fastCutoff = pl.kernel, pl.cutoff
	fold := gv.pa == nil && g.curve != layout.ColMajor && sameView(it.A, it.B) && it.TransA != it.TransB &&
		g.tm == g.tn && runners == 0 && !deferA
	// A product of one small block on the standard recursion is multiplied
	// where it lies: an operand that needs no copy is read as a deferred one
	// (the fold keeps A packed), and an unpadded β = 0, α = 1 C is stored.
	std := w.alg == Standard || g.side() <= max(pl.cutoff, 1)
	place := std && len(ms)*len(ks)*len(ns) == 1 && g.side() <= inPlaceSide
	// Off the register grid its copies go to canonical panels, whose base
	// is one kernel call with the tile loop's bits (exec.base); whole-block
	// tiles stay contiguous curve tiles.
	if place && !fold && gv.pa == nil && gv.pb == nil && pl.kernel.Chained &&
		(g.tm%leaf.MicroM != 0 || g.tn%leaf.MicroN != 0) {
		g.curve = layout.ColMajor
	}
	deferA = deferA || place && !fold && lies(g.hdrA(), it.TransA, ms[0], ks[0])
	deferB = deferB || place && lies(g.hdrB(), it.TransB, ks[0], ns[0])
	pm := planMul{alg: w.alg, alpha: it.Alpha, beta: it.Beta, pa: gv.pa, pb: gv.pb, pc: gv.pc, ms: ms, ks: ks, C: it.C, std: std,
		direct: place && it.Beta == 0 && it.Alpha == 1 && lies(g.hdr(g.tm, g.tn), false, ms[0], ns[0])}
	switch { // the packs resident plans serve: A's, and B's beside it
	case gv.pb != nil:
		pm.reused = 2
	case gv.pa != nil:
		pm.reused = 1
	}
	if gv.pa == nil || gv.pb == nil {
		t0 := time.Now()
		ws.e.phase(ctx, obs.KindConvertIn, "recmat.convert-in", func() {
			if gv.pa == nil {
				pm.pa = &ws.pa
				ws.pa.repack(g.hdrA(), ms, ks).fill(&ws.e, c, &ws.stats, it.A, it.TransA, deferA)
			}
			if gv.pb == nil {
				pm.pb = &ws.pb
				if fold {
					ws.stats.PackReused += len(ks) * len(ns)
					ws.pb.repackTransposed(&ws.pa).fillTransposed(&ws.e, c, &ws.stats, &ws.pa)
				} else {
					ws.pb.repack(g.hdrB(), ks, ns).fill(&ws.e, c, &ws.stats, it.B, it.TransB, deferB)
				}
			}
		})
		ws.stats.ConvertIn += time.Since(t0)
	}
	if err := pm.wave(ctx, c, ws, runners, it.TraceID); err != nil {
		if err == errRunCancelled {
			err = w.cause()
		}
		return w.errf(i, "failed after %d of %d blocks: %w", ws.completed(), len(ws.fin), err)
	}
	return nil
}

// errf is an error of member i, named by its index or a lone call's entry point.
func (w *wave) errf(i int, format string, args ...any) error {
	name := w.what
	if name == "" {
		name = fmt.Sprintf("batch item %d", i)
	}
	return fmt.Errorf("core: "+name+" "+format, args...)
}

// cause names why the run is cancelled: the wave context's cause, or a closing pool.
func (w *wave) cause() error {
	if err := context.Cause(w.ctx); err != nil {
		return err
	}
	return sched.ErrPoolClosed
}

// choose determines the depth and the tile sizes t that cover dims: a
// plan's longest rows, columns and rows again (planA), so that one Pick
// gives every block the same geometry as for a square partner, or a
// product's longest m and k segments, whose depth the partner descends to
// (split); t[2] then repeats t[1]. The padded extents are validated
// (an absurd ForceTile or tile range yields ErrDimension instead of
// garbage allocation sizes).
func choose(o Options, dims ...int) (d uint, t [3]int, err error) {
	if f := o.ForceTile; f > 0 {
		t = [3]int{f, f, f}
		d, err = forcedDepth(f, dims...)
	} else {
		ch := o.Tile.Pick(dims...)
		d, t = ch.D, [3]int{ch.Tiles[0], ch.Tiles[1], ch.Tiles[len(dims)-1]}
	}
	if err == nil {
		_, _, _, err = paddedDims(d, t[0], t[1], t[2])
	}
	return d, t, err
}

// forcedDepth is the depth at which a 2^d grid of forced t×t tiles
// covers every dim.
func forcedDepth(t int, dims ...int) (d uint, err error) {
	for _, dim := range dims {
		need := uint(0)
		// The shift below is safe: dim and t are positive ints, and need
		// grows only while t<<need < dim ≤ MaxInt, so it stays far below
		// the width of int.
		for need < 62 && (t<<need) < dim {
			need++
		}
		if (t << need) < dim {
			return 0, fmt.Errorf("%w: ForceTile=%d cannot cover %d", ErrDimension, t, dim)
		}
		d = max(d, need)
	}
	return d, nil
}

// sameView reports whether two operand views alias the same storage
// with identical geometry — the pattern a symmetric product (SYRK's
// GEMM over one matrix in both slots with opposite trans flags)
// presents to the driver.
func sameView(a, b *matrix.Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.Stride == b.Stride &&
		len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// WorkSpan computes, without executing anything, the analytic work and
// span (in flops) of one algorithm on a 2^d grid of t×t tiles with the
// given parallel-structure assumptions — the idealized counterpart of
// the runtime accounting, used by the parallelism experiment.
func WorkSpan(alg Alg, d uint, t int) (work, span float64) {
	tb := tableOf(alg)
	if tb == nil && alg != Standard {
		panic("core: invalid algorithm")
	}
	// One level of the in-place recursion is two parallel rounds of four
	// products and adds nothing. One level of a ⟨2,2,2⟩ table is R
	// products at once and Table.passes' additions (the paper's 18- and
	// 15-addition counts are for the assignment form; the accumulate form
	// C += Σ±P costs one pass per term: 22 for Strassen, 19 for Winograd,
	// Standard8's 8 post-additions), Table.depth of them on the
	// breadth-first critical path — for Standard8 a C block's two, the
	// O(lg² n) critical path the paper gives the standard algorithm. The
	// engine accounts the DFS first-touch copy of a W aux as a move, not
	// an add, so the work is exact for both level shapes.
	products, adds, rounds, depth := 8.0, 0.0, 2.0, 0.0
	if tb != nil {
		n3, n2, _ := tb.passes()
		products, adds, rounds, depth = float64(tb.R), float64(n3+n2), 1, float64(tb.depth())
	}
	work = 2 * float64(t) * float64(t) * float64(t)
	span = work
	for half := 1; half < 1<<d; half *= 2 {
		pass := float64(half) * float64(half) * float64(t) * float64(t)
		work = products*work + adds*pass
		span = rounds*span + depth*pass
	}
	return work, span
}
