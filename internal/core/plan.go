package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tile"
)

// This file is the one execution pipeline behind GEMMCtx, GEMMPrepacked,
// MulTiledCtx and the members of a GEMMBatch* wave (batch.go): plan →
// pack once → block wave → fused epilogue, all of it inside one
// scheduler run.
//
// A multiplication is cut by one rule (tile.Config.SplitDims, Figure 3)
// into squat blocks that share one geometry, one kernel, one admission
// decision and one arena. Every A and B segment is packed exactly once
// into a plan — a transient one for a per-call GEMM, released when the
// call returns; a *Prepacked* operand simply arrives with that step
// done. The C blocks (i, j) then run through one loop (planMul.wave):
// each block owns a zero-filled tile, accumulates its products over the
// k segments in ascending order in the packed domain, and folds α·tile
// into C in one fused epilogue.
//
// An entry point is enter → plan and admit → one call.run → leave, and
// everything that touches an operand happens in that run's task tree, as
// the paper's program is one Cilk computation: below an entry point
// there is a *sched.Ctx to spawn from and no pool to start a second run
// on. The nesting rule is GEMMBatch's. A call with at least as many C
// blocks as workers pulls them with one runner task per worker, each
// serial inside: the blocks are the parallelism, as Benson–Ballard
// schedule small independent sub-products breadth-first. A call with
// fewer — in particular the single block of a squat multiplication — is
// a wave of one runner whose passes (chunked) and products spawn. Either
// way the k chain of a block is fixed and blocks own disjoint regions of
// C, so the result is a pure function of (operands, shape, algorithm,
// kernel) at any worker count and through either entry point.

// call is an entry point past the prologue they all share (enter).
type call struct {
	// t0, tr and lane are the observability capture: the tracer and lane
	// are taken once per call so a tracer swap mid-call cannot split the
	// call's spans across two tracers.
	t0   time.Time
	tr   *obs.Tracer
	lane int32
	// o is the caller's options with the defaults applied; what names
	// the entry point in a refusal.
	o    Options
	what string
	// pool is the caller's pool or, when it passed none, a transient one
	// with one worker per CPU that leave closes; sched and busy are its
	// scheduler and busy counters at entry (finishStats).
	pool      *sched.Pool
	transient bool
	sched     sched.PoolStats
	busy      int64
	// started: the root task of a run has begun, so the operands may have
	// been touched.
	started bool
}

// enter is the prologue of every entry point: capture the tracer, apply
// the option defaults, take the caller's pool or start a transient one,
// and refuse a closed pool or an already-cancelled context before an
// argument is read — so C and the operands are untouched and nothing is
// allocated. context.Cause preserves a cause-carrying cancellation (e.g.
// a server drain) that plain ctx.Err() would flatten to Canceled. The
// caller defers leave whether or not enter fails.
func enter(ctx context.Context, pool *sched.Pool, opts Options, what string, traceID int64) (*call, error) {
	cl := &call{t0: time.Now(), tr: obs.Cur(), o: opts.withDefaults(), what: what, pool: pool}
	if cl.tr != nil {
		cl.lane = cl.tr.NewLane()
		if traceID != 0 {
			cl.tr.LaneInstant(cl.lane, obs.KindWaveItem, traceID)
		}
	}
	if pool != nil && pool.Closed() {
		return cl, sched.ErrPoolClosed
	}
	if ctx.Err() != nil {
		return cl, fmt.Errorf("core: %s not started: %w", what, context.Cause(ctx))
	}
	if pool == nil {
		cl.pool, cl.transient = sched.NewPool(0), true
	}
	cl.sched, cl.busy = cl.pool.Stats(), cl.pool.BusyNanos()
	return cl, nil
}

// run is the call's scheduler run, the package's one RunCtx: root is a
// task of the pool, and every pass and product below it spawns from its
// frame. Work and span are the run's (a call's budget groups add up). A
// panic under root comes back as the run's *sched.TaskError, and the
// run's own error (cancellation, a closing pool) goes before root's. A
// first run whose root never began — cancelled or closed before a worker
// took it — says so: nothing was touched.
func (cl *call) run(ctx context.Context, stats *Stats, root func(c *sched.Ctx) error) error {
	var rerr error
	work, span, err := cl.pool.RunCtx(ctx, func(c *sched.Ctx) {
		cl.started = true
		rerr = root(c)
	})
	stats.Work += work
	stats.Span += span
	switch {
	case !cl.started:
		return fmt.Errorf("core: %s not started: %w", cl.what, err)
	case err != nil:
		return err
	}
	return rerr
}

// failed words the error of a multiply's run: "not started" stands, any
// other is told how far the call got.
func (cl *call) failed(err error, done, total int) error {
	if !cl.started {
		return err
	}
	return fmt.Errorf("core: %s failed after %d of %d blocks: %w", cl.what, done, total, err)
}

// exec is the call's execution parameters short of what a plan settles
// (kernel, fast cutoff): all that a pass needs.
func (cl *call) exec() *exec {
	return &exec{serialCutoff: cl.o.SerialCutoff, ewMin: ewParMin, tr: cl.tr, lane: cl.lane}
}

// pass is the run of an entry point that converts and does not multiply.
func (cl *call) pass(ctx context.Context, f func(e *exec, c *sched.Ctx)) error {
	return cl.run(ctx, &Stats{}, func(c *sched.Ctx) error {
		f(cl.exec(), c)
		return nil
	})
}

// leave is enter's other half, deferred by the entry point: the
// panic-to-error boundary — a panic outside the run (planning,
// admission) becomes the call's typed error and clears its result — and
// the end of a transient pool.
func leave[T any](cl *call, res *T, err *error) {
	if r := recover(); r != nil {
		*res, *err = *new(T), recoveredError(r)
	}
	if cl.transient {
		cl.pool.Close()
	}
}

// end closes the whole-call span and records the call's metrics. Defer
// it before leave: deferred calls run LIFO, so leave settles the final
// (stats, err) pair before end reads it.
func (cl *call) end(stats *Stats, err error) {
	if cl.tr != nil {
		cl.tr.LaneSpan(cl.lane, obs.KindGEMM, cl.t0, time.Since(cl.t0), gemmSpanArg(stats))
	}
	recordCallMetrics(cl.o.Metrics, stats, err, time.Since(cl.t0))
}

// admitted marks admission's outcome on the call's lane: one instant
// per degradation decision, plus the arena reservation (arg = bytes).
func (cl *call) admitted(notes []string, ar *arena) {
	if cl.tr == nil {
		return
	}
	for range notes {
		cl.tr.LaneInstant(cl.lane, obs.KindDegrade, 0)
	}
	if ar != nil {
		cl.tr.LaneInstant(cl.lane, obs.KindArena, ar.bytes())
	}
}

// geom is the geometry every block of a call shares: a gm×gk×gn grid
// of tm×tk×tn tiles — 2^d per side on the recursive curves and for the
// quadrant algorithms, mixed-radix rectangular (table) for a
// table-driven ⟨m,k,n⟩ algorithm on canonical storage.
type geom struct {
	curve      layout.Curve
	d          uint
	gm, gk, gn int
	tm, tk, tn int
	table      bool
}

func squareGeom(curve layout.Curve, d uint, tm, tk, tn int) geom {
	return geom{curve: curve, d: d, gm: 1 << d, gk: 1 << d, gn: 1 << d, tm: tm, tk: tk, tn: tn}
}

// hdr is the packed-operand header for a gr×gc grid of tr×tc tiles.
func (g geom) hdr(gr, gc, tr, tc int) Tiled {
	h := Tiled{Curve: g.curve, D: g.d, TR: tr, TC: tc}
	if g.curve == layout.ColMajor {
		h.gr, h.gc = gr, gc
	}
	return h
}

func (g geom) hdrA() Tiled { return g.hdr(g.gm, g.gk, g.tm, g.tk) }
func (g geom) hdrB() Tiled { return g.hdr(g.gk, g.gn, g.tk, g.tn) }

// charge prices a call of ms×ks×ns segments on this geometry, its blocks
// pulled by runners tasks (zero: by one that spawns). An operand of a resident plan
// (resA, resB) stays off the bill. One column of C blocks consumes every
// A segment exactly once, one row every B segment: in a wave such an
// operand has no plan either — each block packs the segments it
// multiplies (Prepacked.mat) — and is billed one segment per product
// tile in flight.
func (g geom) charge(fastCutoff int, ms, ks, ns []tile.Seg, resA, resB bool, runners int) charge {
	mp, kp, np := int64(g.gm*g.tm), int64(g.gk*g.tk), int64(g.gn*g.tn)
	ch := charge{perBlock: mp * np, inflight: max(runners, 1), scratch: g.tm*g.tk + g.tk*g.tn,
		plan:   groups{len(ms), len(ks), len(ns)},
		deferA: runners > 0 && !resA && len(ns) == 1, deferB: runners > 0 && !resB && len(ms) == 1,
		arena: func(alg Alg) int64 {
			return arenaStackElems(alg, g.gm, g.gk, g.gn, g.tm, g.tk, g.tn, fastCutoff)
		},
		what: func() string {
			return fmt.Sprintf("%dx%dx%d", mp*int64(len(ms)), kp*int64(len(ks)), np*int64(len(ns)))
		}}
	switch {
	case ch.deferA:
		ch.perBlock += mp * kp
	case !resA:
		ch.segA = mp * kp
	}
	switch {
	case ch.deferB:
		ch.perBlock += kp * np
	case !resB:
		ch.segB = kp * np
	}
	return ch
}

// conformTile is the tile width of a free dimension of extent n on an
// inherited depth-d grid: ceil division by the grid side. The inherited
// depth can leave a skinny dimension with tiles too narrow for the
// register-blocked kernels; rounding up to the micro-kernel's column
// block trades zero padding in the operand for the zero lanes the
// kernel would otherwise pad the tile's last block with (both run at
// vector speed; the rounded tile spares the leaf its copies and adds) —
// but only when the extra padding stays within the configured slack,
// since a deep grid multiplies the rounding by 2^d and would swamp
// that with padded flops.
func conformTile(cfg tile.Config, n int, d uint) int {
	tn := (n + 1<<d - 1) >> d
	if mu := cfg.MicroN; mu > 0 && tn%mu != 0 {
		if rounded := tn + mu - tn%mu; float64(rounded<<d) <= float64(n)*(1+cfg.PadSlack) {
			tn = rounded
		}
	}
	return tn
}

// chooseGeom picks the geometry of a call cut into ms×ks×ns segments;
// the segments of a dimension differ by at most one element, so tiling
// the longest covers them all. A single block tiles by the
// three-dimensional Pick (choose), or — table set — on the algorithm's
// mixed-radix grid when one fits the tile range. A split call takes
// the plan geometry: Pick over A's segment shape, the free dimension's
// tile derived from that depth. That is what Prepack(PartnerDim: n)
// and PrepackConforming arrive at in two steps, so the same operands
// run the same tiles per call and through resident plans.
func chooseGeom(o Options, ms, ks, ns []tile.Seg, table bool) (geom, error) {
	m, k, n := maxSegLen(ms), maxSegLen(ks), maxSegLen(ns)
	if table {
		if tg, ok := chooseTableGeom(tableOf(o.Alg), o.Tile, m, k, n); ok {
			return geom{curve: o.Curve, d: tg.d, gm: tg.gm, gk: tg.gk, gn: tg.gn,
				tm: tg.tm, tk: tg.tk, tn: tg.tn, table: true}, nil
		}
	}
	if len(ms)*len(ks)*len(ns) == 1 {
		d, t, err := choose(o, m, k, n)
		return squareGeom(o.Curve, d, t[0], t[1], t[2]), err
	}
	d, t, err := choose(o, m, k)
	if err != nil {
		return geom{}, err
	}
	tn := conformTile(o.Tile, n, d)
	_, _, _, err = paddedDims(d, t[0], t[1], tn)
	return squareGeom(o.Curve, d, t[0], t[1], tn), err
}

// asWave is the nesting rule, GEMMBatch's: n independent pieces of a
// call are pulled by one task per worker, each serial inside, when there
// are at least as many as workers; fewer (in particular one) run in
// turn on one task, each spawning inside.
func asWave(n, workers int) bool { return n > 1 && n >= workers }

// given says how the operands of a product reach it. The zero value: the
// call packs both out of column-major storage. pa: A is already tiled,
// on pa's segments and geometry; pb, with it, B on pb's. resident plans
// were packed and paid for outside the call and stay off its bill;
// operands the caller tiled for this one product (MulTiledCtx) are
// charged like a transient plan's.
type given struct {
	pa, pb   *Prepacked
	resident bool
	// square gives up a rectangular table's mixed-radix grid: the budget
	// pushed admission below the table algorithm, and only the square
	// geometry can run the other rungs.
	square bool
}

// plan is how one m×k×n product runs under a set of options: the one
// answer to "what will this call do", given before anything is allocated
// and before C is touched. Every entry point — a per-call GEMM, a
// product of resident plans, of pre-tiled operands, each member shape of
// a batched wave, the right-hand side PrepackConforming packs, and
// ResolveAlg, which builds the plan and does not run it — gets it from
// planOf, so they agree on it by construction.
type plan struct {
	m, k, n    int
	ms, ks, ns []tile.Seg // the segments its blocks multiply; nil: an empty product, nothing to plan
	g          geom
	kernel     leaf.Impl // o.KernelName, or leaf.Auto's pick for g's tiles
	// alg is o.Alg, or what AlgAuto settles to on g; cutoff the grid side
	// at which a fast alg hands over to the standard recursion, 0 for an
	// algorithm that is not fast (Options.settle).
	alg    Alg
	cutoff int
	// runners is the width of the block wave when the blocks are the
	// parallelism (asWave): the pool's workers, each runner serial inside.
	// Zero is the wave of one runner, which walks the blocks in order and
	// spawns inside them — or, a wave member, runs them on the member's.
	runners int
	// ch is the admission bill: the operands the call packs, the product
	// tiles in flight, the arena path.
	ch charge
}

// describe reports the plan in stats as run with alg — the plan's own,
// or the rung admission ran: geometry, kernel, cutoff, and the levels of
// alg's own recursion the grid runs above the cutoff.
func (pl *plan) describe(alg Alg, stats *Stats) {
	g := pl.g
	stats.Depth = g.d
	stats.TileM, stats.TileK, stats.TileN = g.tm, g.tk, g.tn
	stats.PaddedM, stats.PaddedK, stats.PaddedN = g.gm*g.tm, g.gk*g.tk, g.gn*g.tn
	stats.Kernel, stats.Alg = pl.kernel.Name, alg
	stats.FastCutoff, stats.FastLevels = pl.cutoff, fastLevels(alg, g.gm, g.gk, g.gn, pl.cutoff)
}

// planOf plans an m×k×n product: the split (GEMM's own, or the one a
// given plan fixes, its free dimension cut as a direct call would cut
// it), the geometry (tile selection, or the given operands' tiles), the
// leaf kernel for those tiles, and what only the kernel and grid settle —
// the fast cutoff and AlgAuto. workers is the pool's worker count and
// decides whether the C blocks run as a wave; zero plans a wave member,
// serial on its runner. Kernel and cutoff are per shape, not per wave: a
// heterogeneous wave gives each member what its single-call twin gets.
func planOf(o Options, workers int, gv given, m, k, n int) (*plan, error) {
	pl := &plan{m: m, k: k, n: n}
	if m == 0 || k == 0 || n == 0 {
		return pl, nil
	}
	var err error
	switch pa, pb := gv.pa, gv.pb; {
	case pb != nil:
		pl.ms, pl.ks, pl.ns = pa.RSegs, pa.CSegs, pb.CSegs
		pl.g = squareGeom(pa.Curve, pa.D, pa.TR, pa.TC, pb.TC)
		_, _, _, err = paddedDims(pa.D, pa.TR, pa.TC, pb.TC)
	case pa != nil:
		var tn int
		pl.ms, pl.ks = pa.RSegs, pa.CSegs
		pl.ns, tn, err = conformSegs(o, pa, n)
		pl.g = squareGeom(pa.Curve, pa.D, pa.TR, pa.TC, tn)
	default:
		pl.ms, pl.ks, pl.ns = splitSegs(o, m, k, n)
		tb := tableOf(o.Alg)
		pl.g, err = chooseGeom(o, pl.ms, pl.ks, pl.ns,
			!gv.square && tb != nil && !tb.quad() && o.Curve == layout.ColMajor && o.ForceTile == 0)
	}
	if err == nil {
		err = pl.resolveGeom(o)
	}
	if err != nil {
		return nil, err
	}
	if asWave(len(pl.ms)*len(pl.ns), workers) {
		pl.runners = workers
	}
	pl.ch = pl.g.charge(pl.cutoff, pl.ms, pl.ks, pl.ns, gv.resident && gv.pa != nil, gv.resident && gv.pb != nil, pl.runners)
	return pl, nil
}

// resolveGeom settles what only the geometry can: the registry entry
// that multiplies its tiles — the one KernelName names, or the default
// for the shape — and for that kernel the fast cutoff and AlgAuto.
func (pl *plan) resolveGeom(o Options) (err error) {
	g := pl.g
	if o.KernelName == "" {
		pl.kernel = leaf.Auto(g.tm, g.tn, g.tk)
	} else if pl.kernel, err = leaf.GetImpl(o.KernelName); err != nil {
		return err
	}
	o.settle(pl.kernel, g.gm, g.tm, g.tk, g.tn)
	pl.alg, pl.cutoff = o.Alg, o.FastCutoff
	return nil
}

// ResolveAlg is the AlgAuto resolution for callers that must know the
// algorithm before the engine runs — the serving layer keys its plan
// cache and request coalescing on the resolved choice. It builds the
// plan a GEMM with these options on this shape would run and does not
// run it, so it answers exactly what that call will do (before any
// admission-control degradation); a shape the driver would reject
// resolves to Standard.
func ResolveAlg(o Options, m, k, n int) Alg {
	if o.Alg != AlgAuto {
		return o.Alg
	}
	if m <= 0 || k <= 0 || n <= 0 {
		return Standard
	}
	pl, err := planOf(o.withDefaults(), 0, given{}, m, k, n)
	if err != nil {
		return Standard
	}
	return pl.alg
}

// prepared is a plan past admission: the rung that runs, its execution
// parameters and (after start) arena.
type prepared struct {
	pl *plan
	admission
	e  *exec
	ar *arena
	// runners is the plan's, or zero when admission chose a serial rung.
	runners int
}

// admitPlan runs admission for pl — a call, or a batched wave by its
// dearest member, priced by the wave's bill — and builds the execution
// parameters of the rung that runs; serial stops all spawning, so only
// one depth-first path of temporaries (and one worker's kernel scratch)
// is live. Nothing is allocated yet: a caller may still reject the
// verdict and plan another geometry.
func admitPlan(cl *call, pl *plan) (*prepared, error) {
	o := cl.o
	o.Alg = pl.alg
	pc := &prepared{pl: pl, runners: pl.runners}
	var err error
	if pc.admission, err = admit(o, cl.pool.Workers(), pl.ch); err != nil {
		return nil, err
	}
	pc.e = cl.exec()
	pc.e.kernel, pc.e.fastCutoff = pl.kernel, pl.cutoff
	if pc.serial {
		pc.runners, pc.e.serialCutoff = 0, noSpawn
	}
	return pc, nil
}

// start reserves the call's scratch arena — the one up-front allocation
// the admission estimate already charged; every temporary of the
// recursion is carved from it — and describes the plan in stats. The
// caller releases pc.ar once the call's tasks have drained (call.run
// returns only after that, even on cancellation).
func (pc *prepared) start(cl *call, stats *Stats) {
	stacks := cl.pool.Workers()
	if pc.serial {
		stacks = 1
	}
	pc.ar = acquireArenaElems(pc.pl.ch.arena(pc.alg), stacks)
	pc.e.ar = pc.ar
	cl.admitted(pc.notes, pc.ar)
	pc.pl.describe(pc.alg, stats)
	stats.Serial, stats.Degraded, stats.EstimatedBytes, stats.ArenaBytes = pc.serial, pc.notes, pc.est, pc.ar.bytes()
}

// finish closes the call's accounting once its tasks have drained.
func (pc *prepared) finish(cl *call, stats *Stats) {
	if pc.ar != nil {
		stats.AllocBytes = 8 * pc.ar.fallbackElems.Load()
	}
	cl.finishStats(stats)
}

// errRunCancelled reports that the scheduler run a block was executing
// in was cancelled: the block's product may be partial and is dropped.
// The run's own error carries the cause.
var errRunCancelled = errors.New("core: run cancelled")

// planMul is one plan product C += α·A·B: both operands packed into
// conforming plans, C β-scaled already.
type planMul struct {
	alg   Alg
	alpha float64
	// beta is what C was scaled by before this product; the epilogue
	// stores into a C that β = 0 left all zeros and accumulates otherwise.
	beta   float64
	pa, pb *Prepacked
	C      *matrix.Dense
	// tc, when non-nil, is a C the caller holds tiled (MulTiledCtx): the
	// one block accumulates straight into it — no zero-fill, no epilogue.
	tc *Tiled
	// reused counts the operand packs a resident plan serves per
	// product (Stats.PackReused).
	reused int
}

// block computes C block (i, j) on its runner: the products over the k
// segments accumulate, in ascending order, into a zero-filled pooled
// tile in the packed domain, and one fused epilogue folds α·tile into
// the block's region of C — which therefore holds its β-scaled input
// until the whole chain has succeeded. Each step spawns or streams by
// the runner's rule (exec.spawns, exec.par). On a cancelled run the
// steps fall through to the check after the product, which drops the
// tile; the epilogue, once begun, completes (unpackAccumulate's shield).
func (pm *planMul) block(ctx context.Context, c *sched.Ctx, i, j int, ws *waveWS) error {
	pa, pb, e, alg := pm.pa, pm.pb, &ws.e, pm.alg
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	sm, sn := pa.RSegs[i], pb.CSegs[j]
	tc, t0 := pm.tc, time.Now()
	if tc == nil {
		tc = &ws.tc
		hdr := pa.hdr
		hdr.TC, hdr.gc = pb.TC, pb.hdr.gc
		tc.refit(&ws.stats, hdr, sm.Len, sn.Len)
		e.phase(ctx, obs.KindConvertIn, "recmat.convert-in", func() { e.zero(c, tc.Data) })
		ws.stats.ConvertIn += time.Since(t0)
	}
	t1 := time.Now()

	// A deferred operand's segment is packed here, by its one consumer,
	// into the runner's buffer; mat bills that to ConvertIn.
	cm, in0 := tc.Mat(), ws.stats.ConvertIn
	for kk := range pa.CSegs {
		am, bm := pa.mat(c, ws, &ws.one[0], i, kk), pb.mat(c, ws, &ws.one[1], kk, j)
		e.phase(ctx, obs.KindCompute, "recmat.compute", func() { e.mul(c, alg, cm, am, bm) })
		if c.Cancelled() {
			return errRunCancelled
		}
		ws.stats.Blocks++
		ws.stats.PackReused += pm.reused
	}
	t2 := time.Now()
	ws.stats.Compute += t2.Sub(t1) - (ws.stats.ConvertIn - in0)
	if pm.tc != nil {
		return nil
	}

	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	Cv := pm.C.View(sm.Off, sn.Off, sm.Len, sn.Len)
	e.phase(ctx, obs.KindConvertOut, "recmat.convert-out", func() { tc.unpackAccumulate(e, c, Cv, pm.alpha, pm.beta) })
	ws.stats.ConvertOut += time.Since(t2)
	ws.stats.ConvertBytes += 8 * int64(len(tc.Data))
	return nil
}

// wave is the one block loop: every C block of the plan product, pulled
// by pc.runners tasks or walked by one. It returns how many blocks
// completed; on failure or cancellation the others still hold their
// β-scaled input.
func (pm *planMul) wave(ctx context.Context, c *sched.Ctx, pc *prepared, stats *Stats, traceID int64) (int, error) {
	nn := len(pm.pb.CSegs)
	nb := len(pm.pa.RSegs) * nn
	// A group cut to fit the budget may hold too few blocks for a wave.
	n, e := 1, *pc.e
	if pc.runners > 0 && asWave(nb, pc.runners) {
		// The wave saturates the pool by itself; a task's parallelism is
		// its siblings.
		n, e.serialCutoff = pc.runners, noSpawn
	}
	var done atomic.Int64
	err := pullWave(ctx, c, &e, n, nb, stats, func(c *sched.Ctx, ws *waveWS, b int) error {
		t0 := time.Now()
		err := pm.block(ctx, c, b/nn, b%nn, ws)
		if ws.e.shared && ws.e.tr != nil {
			ws.e.tr.Span(c.WorkerID(), obs.KindWaveItem, t0, time.Since(t0), traceID)
		}
		if err == nil {
			done.Add(1)
		}
		return err
	})
	return int(done.Load()), err
}

// waveWS is one runner's workspace: its private copy of the execution
// parameters (a batched wave swaps each member's kernel and cutoff in
// without racing the other runners), the product tile, and — for a
// batch member — the transient plans its operands are packed into; a
// deferred operand's segments are packed, one at a time, into the same
// first blocks (one). Buffers persist across the steps a runner
// executes: acquired on first use, regrown only for a larger size class,
// and returned to the pool once, when the runner drains.
type waveWS struct {
	e      exec
	err    error // the step error that stopped the runner
	tc     Tiled
	pa, pb Prepacked
	one    [2]Tiled // pa's and pb's first block: an unsplit member allocates no headers
	stats  Stats
}

func (ws *waveWS) release() {
	releaseTiled(&ws.tc)
	ws.pa.Release()
	ws.pb.Release()
}

// pullWave is the one runner loop: the indices below count are pulled
// off a shared counter by n runner tasks spawned from c — one runs on
// c's own frame — each with its own workspace and copy of e. A step that
// returns an error or panics stops every runner, and the first error by
// runner is returned. The runners' counters are merged into stats, and
// the wave's wall time is apportioned to the three phase timers by the
// share of task time each phase took.
func pullWave(ctx context.Context, c *sched.Ctx, e *exec, n, count int, stats *Stats,
	step func(c *sched.Ctx, ws *waveWS, i int) error) error {

	wss := make([]waveWS, n)
	var st struct {
		runner, next atomic.Int64
		stop         atomic.Bool
	}
	runner := func(c *sched.Ctx) {
		ws := &wss[st.runner.Add(1)-1]
		ws.e = *e
		ws.e.shared = n > 1
		ws.pa.blocks, ws.pb.blocks = ws.one[0:0:1], ws.one[1:1:2]
		clean := false
		defer func() {
			ws.release()
			if !clean {
				st.stop.Store(true)
			}
		}()
		for !st.stop.Load() && !c.Cancelled() {
			i := int(st.next.Add(1)) - 1
			if i >= count {
				break
			}
			if err := step(c, ws, i); err != nil {
				ws.err = err
				return
			}
		}
		clean = true
	}

	t0 := time.Now()
	if n == 1 {
		runner(c)
	} else {
		fns := make([]func(*sched.Ctx), n)
		for r := range fns {
			fns[r] = runner
		}
		e.phase(ctx, obs.KindCompute, "recmat.compute", func() { c.Parallel(fns...) })
	}
	wall := time.Since(t0)

	var err error
	var in, comp, out time.Duration
	for r := range wss {
		s := &wss[r].stats
		in, comp, out = in+s.ConvertIn, comp+s.Compute, out+s.ConvertOut
		stats.merge(s)
		if err == nil {
			err = wss[r].err
		}
	}
	if tot := float64(in + comp + out); tot > 0 {
		stats.ConvertIn += time.Duration(float64(wall) * float64(in) / tot)
		stats.Compute += time.Duration(float64(wall) * float64(comp) / tot)
		stats.ConvertOut += time.Duration(float64(wall) * float64(out) / tot)
	}
	return err
}

// merge folds one runner workspace's counters into the call's stats.
func (s *Stats) merge(ws *Stats) {
	s.ConvertBytes += ws.ConvertBytes
	s.Blocks += ws.Blocks
	s.PoolHits += ws.PoolHits
	s.PoolMisses += ws.PoolMisses
	s.PackReused += ws.PackReused
	s.PackDeferred += ws.PackDeferred
}
