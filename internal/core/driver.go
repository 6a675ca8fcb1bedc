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
	// empty string selects the default: leaf.Auto's pick for the call's
	// tile shape on this CPU, the same in every call and process.
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
	// PartnerDim, when positive, tells Prepack the expected free
	// dimension of future multiplication partners (e.g. the width b of
	// the streamed right-hand sides a plan will serve). It enters the
	// wide/lean split exactly as the third dimension does in a direct
	// GEMM, so a square operand prepacked for skinny partners splits
	// into the same squat blocks a direct call would use — without it, a
	// plan assumes partners its own size, and its deep monolithic grid
	// forces heavy padding on a skinny partner's free dimension.
	// Ignored outside Prepack.
	PartnerDim int
	// MemBudget, when positive, is an admission-control cap in bytes on
	// the estimated footprint of the call (packed operand segments +
	// in-flight product tiles + algorithm temporaries + per-worker
	// kernel scratch). When the requested configuration exceeds it, the
	// driver first walks a split call's packed segments in groups that
	// fit (the larger operand's panels, then both, then the k chain),
	// then degrades along a ladder — Strassen/Winograd → Strassen
	// (serial: every level depth-first, the paper's space-conserving
	// variant) → Standard → Standard (serial) — and records each
	// decision in Stats.Degraded; if even the smallest rung exceeds the
	// budget the call fails with ErrMemBudget before allocating
	// anything.
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
	// TraceID, when non-zero, attributes this call to a served request:
	// the call's lane carries a wave-item event with the id as its arg,
	// which the exporter links back to the request's lane. Zero (the
	// default) emits nothing extra.
	TraceID int64
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
	// default for the host's CPU features and the tile shape (leaf.Auto).
	// "avx2" and "avx512" round identically; any other pair may differ
	// in the last bits.
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
	// in-flight product tiles, arena and kernel scratch.
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
	// operand buffers filled from (or, for the fused epilogue,
	// accumulated back into) column-major storage. Prepacked operands
	// contribute nothing, so a plan-reusing call reports ≈ 0 here —
	// Section 4's conversion accounting, in bytes rather than seconds.
	ConvertBytes int64
	// PackReused counts operand packs satisfied without reading the
	// column-major source: blocks served by a *Prepacked* plan, and
	// second operands derived in-layout from the first (the transposed
	// pack a symmetric α·A·Aᵀ product folds).
	PackReused int
	// PackDeferred counts operand segments packed, each still once and
	// counted in ConvertBytes, by the one C block of a wave that
	// multiplies them, into its runner's buffer and not into a plan.
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
// error wrapping ctx's cause within a bounded latency.
//
// Failure atomicity: until validation and admission have passed and the
// call's scheduler run has begun, C is untouched (a cancellation that
// lands first says "not started"). The run scales C by beta before
// anything else; if the call then fails or is cancelled, C holds the
// β-scaled inputs (for beta == 0, zeros) plus the fully-unpacked
// products of any *completed* blocks — never a partially-written block
// product, since results are unpacked into C only after a block's
// compute finishes, by a pass no cancellation interrupts. The error
// reports how many blocks had completed. (Only under a MemBudget too
// small for a block's whole k chain does a C block take its product in
// several such steps, one per group of k segments, each of them all or
// nothing.)
func GEMMCtx(ctx context.Context, pool *sched.Pool, opts Options, transA, transB bool, alpha float64,
	A, B *matrix.Dense, beta float64, C *matrix.Dense) (stats *Stats, err error) {

	cl, err := enter(ctx, pool, opts, "GEMM", opts.TraceID)
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	o := cl.o
	if o.Curve == layout.RowMajor {
		return nil, fmt.Errorf("core: the row-major layout is not supported by the multiplication driver")
	}
	m, k := opShape(A, transA)
	kb, n := opShape(B, transB)
	if err := conform(alpha, beta, m, k, kb, n, C); err != nil {
		return nil, err
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		if err := cl.pass(ctx, func(e *exec, c *sched.Ctx) { e.scaleC(c, C, beta) }); err != nil {
			return nil, err
		}
		return &Stats{Layout: o.Curve}, nil
	}

	// Plan: one split, one geometry, one algorithm, one admission
	// decision for the whole call — all before C is touched.
	stats = &Stats{}
	pc, err := planGEMM(cl, stats, m, k, n, transA, transB, A, B)
	if err != nil {
		return nil, err
	}
	defer releaseArena(pc.ar)

	// One run: β·C, pack once, then the block wave. Operands are packed
	// UNSCALED (α rides in the fused epilogue) into a transient plan of
	// pooled buffers: one group, every segment packed once and held for
	// the call, or — over budget — the groups admission sized (charge.fit),
	// a run each, row panels outermost, the k chain innermost, an operand's
	// packed group kept for as long as the walk stays on it. An operand
	// whose segments each have one consuming block (charge.deferA, deferB)
	// gets a plan of no blocks: the block packs them, into its runner's
	// buffer. Buffers return to the pool even on failure: a run drains its
	// tasks before it returns. When op(B) is exactly op(A)ᵀ (SYRK's GEMM
	// over one matrix in both slots) and one runner walks the blocks, B's
	// plan is derived from A's inside the recursive layout instead of
	// re-reading the strided column-major source.
	g, ch, ms, ks, ns, gr := pc.pl.g, pc.pl.ch, pc.pl.ms, pc.pl.ks, pc.pl.ns, pc.groups
	fold := o.Curve != layout.ColMajor && sameView(A, B) && transA != transB &&
		g.tm == g.tn && gr == ch.plan && pc.runners == 0 && !ch.deferA
	pm := planMul{alg: pc.alg, alpha: alpha, C: C}
	defer func() { pm.pa.Release(); pm.pb.Release() }()
	type corner struct{ r, c int } // a packed group, by its first segments
	heldA, heldB := corner{-1, -1}, corner{-1, -1}
	total, done := len(ms)*len(ns)*((len(ks)+gr.ks-1)/gr.ks), 0
	for i := 0; i < len(ms); i += gr.rows {
		for j := 0; j < len(ns); j += gr.cols {
			for q := 0; q < len(ks); q += gr.ks {
				rows, cols, inner := ms[i:min(i+gr.rows, len(ms))], ns[j:min(j+gr.cols, len(ns))], ks[q:min(q+gr.ks, len(ks))]
				first := !cl.started
				err := cl.run(ctx, stats, func(c *sched.Ctx) error {
					if first {
						pc.e.scaleC(c, C, beta)
					}
					t0 := time.Now()
					pc.e.phase(ctx, obs.KindConvertIn, "recmat.convert-in", func() {
						if at := (corner{i, q}); heldA != at {
							pm.pa.Release()
							heldA = at
							pm.pa = newPlan(g.hdrA(), rows, inner)
							pm.pa.fill(pc.e, c, stats, A, transA, ch.deferA)
						}
						if at := (corner{q, j}); heldB != at {
							pm.pb.Release()
							heldB = at
							if fold {
								stats.PackReused += len(ks) * len(ns)
								pm.pb = pm.pa.transposedPlan()
								pm.pb.fillTransposed(pc.e, c, stats, pm.pa)
							} else {
								pm.pb = newPlan(g.hdrB(), inner, cols)
								pm.pb.fill(pc.e, c, stats, B, transB, ch.deferB)
							}
						}
					})
					stats.ConvertIn += time.Since(t0)
					// Only a block's first k group finds C as β left it.
					if pm.beta = beta; q > 0 {
						pm.beta = 1
					}
					nd, err := pm.wave(ctx, c, pc, stats, o.TraceID)
					done += nd
					return err
				})
				if err != nil {
					return nil, cl.failed(err, done, total)
				}
			}
		}
	}
	pc.finish(cl, stats)
	return stats, nil
}

// choose determines the depth and the tile sizes t that cover dims:
// (m, k, n) for one block multiplication, or the (rows, columns) of an
// operand — a plan's maximum segment lengths, so that one Pick gives
// every block the same geometry and two independently prepacked operands
// can conform; t[2] then repeats t[1]. The padded extents are validated
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

// planGEMM settles a per-call GEMM's once-per-call decisions: plan,
// admit, and — when MaxResidualGrowth is set and the admitted algorithm
// runs a fast level — the residual probe, whose failure re-plans once
// with Standard. The algorithm that executes may therefore be a cheaper
// rung than the requested one, with every decision recorded in
// stats.Degraded.
func planGEMM(cl *call, stats *Stats, m, k, n int, transA, transB bool, A, B *matrix.Dense) (*prepared, error) {
	o := cl.o
	var notes []string
	for {
		pl, err := planOf(o, cl.pool.Workers(), given{}, m, k, n)
		if err != nil {
			return nil, err
		}
		pc, err := admitPlan(cl, pl)
		if err != nil {
			return nil, err
		}
		notes = append(notes, pc.notes...)
		if o.MaxResidualGrowth > 0 && fastLevels(pc.alg, pl.g.side(), pl.cutoff) > 0 {
			if growth := probeResidualGrowth(pc.e, pc.alg, transA, transB, A, B); growth > o.MaxResidualGrowth {
				notes = append(notes, fmt.Sprintf("residual-probe: %v growth %.1f > bound %.1f; degraded to %v",
					pc.alg, growth, o.MaxResidualGrowth, Standard))
				o.Alg = Standard
				continue
			}
		}
		pc.notes = notes
		pc.start(cl, stats)
		return pc, nil
	}
}

// sameView reports whether two operand views alias the same storage
// with identical geometry — the pattern a symmetric product (SYRK's
// GEMM over one matrix in both slots with opposite trans flags)
// presents to the driver.
func sameView(a, b *matrix.Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.Stride == b.Stride &&
		len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// ConformTiled checks that pre-tiled operands multiply as A·B: one
// curve, one depth, conforming tile shapes and logical extents. Tiled
// operands are the one input that never passes conform, which sees
// column-major shapes only.
func ConformTiled(A, B *Tiled) error {
	switch {
	case A == nil || B == nil:
		return fmt.Errorf("%w: nil tiled operand", ErrDimension)
	case A.Curve != B.Curve:
		return fmt.Errorf("%w: tiled layouts differ: %v vs %v", ErrDimension, A.Curve, B.Curve)
	case A.D != B.D:
		return fmt.Errorf("%w: tiled depths differ: %d vs %d", ErrDimension, A.D, B.D)
	case A.TC != B.TR || A.Cols != B.Rows:
		return fmt.Errorf("%w: tiled operands do not conform: %dx%d in %dx%d tiles · %dx%d in %dx%d tiles",
			ErrDimension, A.Rows, A.Cols, A.TR, A.TC, B.Rows, B.Cols, B.TR, B.TC)
	}
	return nil
}

// MulTiled runs C += A·B directly on pre-converted tiled operands,
// bypassing conversion — the entry point benchmarks use to time the
// multiplication alone. The three operands must share curve and depth,
// with conforming tile shapes and logical extents (ErrDimension
// otherwise). MulTiled is MulTiledCtx with a background context.
func MulTiled(pool *sched.Pool, opts Options, C, A, B *Tiled) (*Stats, error) {
	return MulTiledCtx(context.Background(), pool, opts, C, A, B)
}

// MulTiledCtx is MulTiled with cooperative cancellation and the same
// panic-to-error boundary as GEMMCtx. On cancellation or failure the
// tiled C must be considered corrupt: unlike GEMMCtx there is no
// private packed copy, so partial quadrant products may already have
// accumulated into it.
func MulTiledCtx(ctx context.Context, pool *sched.Pool, opts Options, C, A, B *Tiled) (stats *Stats, err error) {
	cl, err := enter(ctx, pool, opts, "MulTiled", 0)
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	if err := ConformTiled(A, B); err != nil {
		return nil, err
	}
	if C == nil {
		return nil, fmt.Errorf("%w: nil tiled operand", ErrDimension)
	}
	if C.Curve != A.Curve || C.D != A.D || C.TR != A.TR || C.TC != B.TC || C.Rows != A.Rows || C.Cols != B.Cols {
		return nil, fmt.Errorf("%w: tiled C is %dx%d in %dx%d tiles (%v, depth %d), the product is %dx%d in %dx%d tiles (%v, depth %d)",
			ErrDimension, C.Rows, C.Cols, C.TR, C.TC, C.Curve, C.D, A.Rows, B.Cols, A.TR, B.TC, A.Curve, A.D)
	}
	// A plan product of one block whose operands the caller already holds
	// tiled — plans of one segment pair each, charged like a transient
	// plan's — into a C it holds tiled too.
	whole := func(t *Tiled) *Prepacked {
		p := newPlan(*t, []tile.Seg{{Len: t.Rows}}, []tile.Seg{{Len: t.Cols}})
		p.blocks = []Tiled{*t}
		return p
	}
	pm := planMul{pa: whole(A), pb: whole(B), tc: C}
	pl, err := planOf(cl.o, cl.pool.Workers(), given{pa: pm.pa, pb: pm.pb}, A.Rows, A.Cols, B.Cols)
	if err != nil {
		return nil, err
	}
	if pl.ns == nil {
		return &Stats{Layout: A.Curve}, nil // an empty product: C += nothing
	}
	pc, err := admitPlan(cl, pl)
	if err != nil {
		return nil, err
	}
	stats = &Stats{}
	pc.start(cl, stats)
	defer releaseArena(pc.ar)
	pm.alg = pc.alg
	if err := cl.run(ctx, stats, func(c *sched.Ctx) error {
		_, err := pm.wave(ctx, c, pc, stats, 0)
		return err
	}); err != nil {
		return nil, err
	}
	pc.finish(cl, stats)
	return stats, nil
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
