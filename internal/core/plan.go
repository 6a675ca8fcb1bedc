package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tile"
)

// This file is the one execution pipeline behind every entry point that
// multiplies — GEMMCtx, GEMMPrepacked, MulPrepacked and the members of a
// GEMMBatch* wave, a single call being a wave of one member: one
// scheduler run (call.multiply) of one member body (wave.body), plan →
// pack once → block wave → fused epilogue. A product is cut by one rule
// (split: the quadrants of A's plan, Figure 3) into squat blocks that
// share one geometry, kernel, admission decision and arena. Every A and
// B segment is packed once — into a runner's transient plan, by its one
// consuming block, or, for a *Prepacked* operand, before the call —
// unless a plan would exceed MemBudget: then each block packs the
// segments it multiplies. Each C block (planMul.block) owns a tile its
// first product stores, accumulates the rest over the k segments in
// ascending order in the packed domain, and folds α·tile into C in one
// fused epilogue. A product of one small block is multiplied where it
// lies (wave.body), and one whose C is a plan (MulPrepacked) accumulates
// into C's blocks: a packed operand is a plan, split into blocks or one.
//
// As the paper's program is one Cilk computation, everything that
// touches an operand happens in the run's task tree: below an entry
// point there is a *sched.Ctx to spawn from and no pool to start a
// second run on. One nesting rule (asWave) covers members and blocks: at
// least as many pieces as workers are pulled by one runner per worker,
// each serial inside — the pieces are the parallelism, as Benson–Ballard
// schedule small independent sub-products — and fewer run a runner each,
// spawning inside. Either way a block's k chain is fixed and blocks own
// disjoint regions of C, so the result is a pure function of (operands,
// shape, algorithm, kernel) at any worker count and through any entry
// point.

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
func enter(ctx context.Context, pool *sched.Pool, opts Options, what string) (*call, error) {
	cl := &call{t0: time.Now(), tr: obs.Cur(), o: opts.withDefaults(), what: what, pool: pool}
	if cl.tr != nil {
		cl.lane = cl.tr.NewLane()
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
// frame. A panic under root comes back as the run's *sched.TaskError,
// after the run's own error (cancellation, a closing pool). A run whose
// root never began — cancelled or closed before a worker took it — says
// so: nothing was touched.
func (cl *call) run(ctx context.Context, stats *Stats, root func(c *sched.Ctx)) error {
	work, span, err := cl.pool.RunCtx(ctx, func(c *sched.Ctx) {
		cl.started = true
		root(c)
	})
	stats.Work += work
	stats.Span += span
	if !cl.started {
		return fmt.Errorf("core: %s not started: %w", cl.what, err)
	}
	return err
}

// exec is the call's execution parameters short of what a plan settles
// (kernel, fast cutoff): all that a pass needs.
func (cl *call) exec() *exec {
	return &exec{serialCutoff: cl.o.SerialCutoff, ewMin: ewParMin, tr: cl.tr, lane: cl.lane}
}

// pass is the run of an entry point that converts and does not multiply.
func (cl *call) pass(ctx context.Context, f func(e *exec, c *sched.Ctx)) error {
	return cl.run(ctx, &Stats{}, func(c *sched.Ctx) { f(cl.exec(), c) })
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

// geom is the geometry every block of a call shares: a 2^d × 2^d grid
// of tm×tk×tn tiles, on every layout and for every algorithm.
type geom struct {
	curve      layout.Curve
	d          uint
	tm, tk, tn int
}

// side is the grid's extent in tiles.
func (g geom) side() int { return 1 << g.d }

// hdr is the packed-operand header for a grid of tr×tc tiles.
func (g geom) hdr(tr, tc int) Tiled { return Tiled{Curve: g.curve, D: g.d, TR: tr, TC: tc} }

func (g geom) hdrA() Tiled { return g.hdr(g.tm, g.tk) }

// hdrB is the header of the B the call packs, and of the product tile
// beside it (planMul.block): a partner narrower than A's tiles is stored
// as one padded column-major panel per block, which exec.base multiplies
// a row tile and k run at a time over its whole width.
func (g geom) hdrB() Tiled {
	h := g.hdr(g.tk, g.tn)
	if g.tn < g.tm {
		h.Curve = layout.ColMajor
	}
	return h
}

// charge prices alg on a call of ms×ks×ns segments on this geometry, its
// blocks pulled by runners tasks (zero: by one that spawns), its operands
// arriving as gv says. A plan it is given stays off the bill, and a C plan
// leaves no product tile to bill. One column of C blocks consumes every A
// segment once, one row every B segment: in a wave such an operand has no
// plan — each block packs the segments it multiplies (Prepacked.mat) —
// and is billed one segment per product tile in flight. Any other operand
// the call packs is held as a transient plan, which admission may move to
// its consumers the same way.
func (g geom) charge(alg Alg, fastCutoff int, ms, ks, ns []tile.Seg, gv given, runners int) charge {
	mp, kp, np := int64(g.side()*g.tm), int64(g.side()*g.tk), int64(g.side()*g.tn)
	ch := charge{alg: alg, perBlock: mp * np, inflight: max(runners, 1), scratch: g.tm*g.tk + g.tk*g.tn,
		deferA: runners > 0 && gv.pa == nil && len(ns) == 1, deferB: runners > 0 && gv.pb == nil && len(ms) == 1,
		what: func() string {
			return fmt.Sprintf("%dx%dx%d", mp*int64(len(ms)), kp*int64(len(ks)), np*int64(len(ns)))
		}}
	bill := func(resident *Prepacked, deferred bool, seg int64, segs int) {
		switch {
		case deferred:
			ch.perBlock += seg
		case resident == nil:
			ch.held, ch.consume = ch.held+seg*int64(segs), ch.consume+seg
		}
	}
	bill(gv.pa, ch.deferA, mp*kp, len(ms)*len(ks))
	bill(gv.pb, ch.deferB, kp*np, len(ks)*len(ns))
	if gv.pc != nil { // the blocks accumulate into C's plan: no product tile
		ch.perBlock = 0
	}
	for i, r := range ladder(alg) {
		ch.arena[i] = arenaStackElems(r.alg, r.serial, g.side(), g.tm, g.tk, g.tn, fastCutoff)
	}
	return ch
}

// conformTile is the tile of a dimension cut into segs on a depth-d
// grid: the longest segment over the grid side, rounded up to a multiple
// of mu, the kernel's register block (0: none), if at most most — the
// kernel pads a short block with zero lanes anyway, and a rounded tile
// spares every leaf call the pack and copy of that fringe — unless every
// segment fills the grid exactly, to be read where it lies.
func conformTile(segs []tile.Seg, d uint, mu, most int) int {
	t := (maxSegLen(segs) + 1<<d - 1) >> d
	fill := !slices.ContainsFunc(segs, func(s tile.Seg) bool { return s.Len != t<<d })
	if mu > 0 && t%mu != 0 && !fill && t+mu-t%mu <= most {
		t += mu - t%mu
	}
	return t
}

// asWave is the nesting rule: n independent pieces (a wave's members, a
// member's blocks) are pulled by one task per worker, each serial inside,
// when there are at least as many as workers.
func asWave(n, workers int) bool { return n > 1 && n >= workers }

// given says how the operands of a product reach it. The zero value: the
// call packs both out of column-major storage. pa: A is a resident plan,
// read on the segments and geometry of its quadrants; pb, with it, B on
// pb's; pc, with both, C is the product's plan (MulPrepacked), which the
// blocks accumulate into. Every given plan was packed and paid for
// outside the call and stays off its bill.
type given struct {
	pa, pb, pc *Prepacked
}

// plan is how one m×k×n product runs under a set of options: the one
// answer to "what will this call do", given before anything is allocated
// and before C is touched. Every entry point — a per-call GEMM, a
// product of resident plans, into C or a plan of it, each member shape of
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
	// Zero: the member's own runner walks the blocks in order, spawning
	// inside them unless the wave's members are the parallelism.
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
	stats.PaddedM, stats.PaddedK, stats.PaddedN = g.side()*g.tm, g.side()*g.tk, g.side()*g.tn
	stats.Kernel, stats.Alg, stats.Layout = pl.kernel.Name, alg, g.curve
	stats.FastCutoff, stats.FastLevels = pl.cutoff, fastLevels(alg, g.side(), pl.cutoff)
}

// planOf plans an m×k×n product: the split and geometry (split, or the
// given plans' tiles), the leaf kernel for those tiles, and what only the
// kernel and grid settle — the fast cutoff and AlgAuto. workers is the
// pool's worker count and decides whether the C blocks run as a wave;
// zero plans a member of a wave whose members are the parallelism, serial
// on its runner. Kernel and cutoff are per shape, not per wave: a
// heterogeneous wave gives each member what its single-call twin gets.
func planOf(o Options, workers int, gv given, m, k, n int) (*plan, error) {
	if err := multipliable(o.Curve); err != nil {
		return nil, err
	}
	pl := &plan{m: m, k: k, n: n}
	if m == 0 || k == 0 || n == 0 {
		return pl, nil
	}
	var err error
	if pa, pb := gv.pa, gv.pb; pb != nil { // conformed (conformPlans): pb's depth is the descent's
		pl.ms, pl.ks, _ = pa.quads(pa.D - pb.D)
		pl.ns, pl.g = pb.CSegs, geom{pa.Curve, pb.D, pa.TR, pa.TC, pb.TC}
		_, _, _, err = paddedDims(pb.D, pa.TR, pa.TC, pb.TC)
	} else {
		pl.ms, pl.ks, pl.ns, pl.g, err = split(o, pa, m, k, n)
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
	pl.ch = pl.g.charge(pl.alg, pl.cutoff, pl.ms, pl.ks, pl.ns, gv, pl.runners)
	return pl, nil
}

// split cuts an m×k×n product into the blocks it multiplies and picks
// their geometry, one rule for every entry point: A is read through the
// quadrants of its plan — pa, or for a direct call the plan Prepack would
// make (planA) — at the depth d a Pick over the wide/lean split's
// segments gives: level l = pa.D − d, on pa's tiles, a quadrant wholly in
// padding left out; n is cut as the split cuts it (by forced tiles, to
// their grid), its tile rounded only within the slack: tiles merged in
// place compute every column. So every entry point has one set of bits.
func split(o Options, pa *Prepacked, m, k, n int) (ms, ks, ns []tile.Seg, g geom, err error) {
	ms, ks, ns = splitSegs(o, m, k, n)
	d, _, err := choose(o, maxSegLen(ms), maxSegLen(ks))
	if err == nil && pa == nil {
		rs, cs := ms, ks // at n ≥ min(m, k) the split cuts m and k as against a square partner
		if n < min(m, k) {
			rs, cs, _ = splitSegs(o, m, k, m)
		}
		pa = new(Prepacked)
		*pa, err = planA(o, rs, cs)
	}
	if err != nil {
		return nil, nil, nil, geom{}, err
	}
	d = max(min(d, pa.D), pa.D-min(pa.D, maxPosDepth))
	ms, ks, _ = pa.quads(pa.D - d)
	g = geom{pa.Curve, d, pa.TR, pa.TC, conformTile(ns, d, o.Tile.MicroN, int(float64(maxSegLen(ns))*(1+o.Tile.PadSlack))>>d)}
	if f := o.ForceTile; f > 0 {
		ns, g.tn = tile.SplitDim(n, f<<g.d), f
	}
	_, _, _, err = paddedDims(g.d, g.tm, g.tk, g.tn)
	return ms, ks, ns, g, err
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
	o.settle(pl.kernel, g.side(), g.tm, g.tk, g.tn)
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

// ResolveCurve is ResolveAlg's companion for the layout: o.Curve, or what
// withDefaults resolves the unset one to.
func ResolveCurve(o Options) layout.Curve { return o.withDefaults().Curve }

// errRunCancelled reports that a block's run was cancelled: its product
// may be partial and is dropped; the run's own error carries the cause.
var errRunCancelled = errors.New("core: run cancelled")

// planMul is one plan product C ← β·C + α·A·B: both operands packed into
// conforming plans, β applied by each block's epilogue — or C a plan of
// the product's geometry (pc) the blocks accumulate into.
type planMul struct {
	alg   Alg
	alpha float64
	// beta rides in the epilogue: at β = 0 it stores into C without
	// reading it, at β = 1 it accumulates, otherwise it does both.
	beta       float64
	pa, pb, pc *Prepacked
	// ms and ks are the plan's segments: pa's quadrants at pb's depth.
	ms, ks []tile.Seg
	C      *matrix.Dense
	// std: the blocks run the standard recursion from the root (tableMul
	// hands it a grid at the cutoff), which reads any storage. direct: the
	// one block's product is stored into C, at C's leading dimension.
	std, direct bool
	// reused counts the operand packs a resident plan serves per
	// product (Stats.PackReused).
	reused int
}

// block computes C block (i, j) on its runner: the products over the k
// segments accumulate, in ascending order, into a pooled tile in the
// packed domain — stored by its first product on the standard recursion,
// zero-filled ahead of a fast level — and one fused epilogue folds α·tile
// into the block's region of C, which therefore receives nothing until
// the whole chain has succeeded. A product that goes straight into C's
// storage — C's plan's block (pc), accumulated into, or C itself, stored
// (direct) — has no tile and no epilogue. Each step spawns or streams by
// the runner's rule (exec.spawns, exec.par). On a cancelled run the
// steps fall through to the check after the product, which drops the
// tile; the epilogue, once begun, completes (unpackAccumulate's shield).
// On a runner that shares the blocks, or for an item a request traces,
// the block is a wave-item span carrying the item's trace id.
func (pm *planMul) block(ctx context.Context, c *sched.Ctx, i, j int, ws *waveWS, traceID int64) error {
	pa, pb, e, alg := pm.pa, pm.pb, &ws.e, pm.alg
	if tr := e.tr; tr != nil && (e.shared || traceID != 0) {
		defer func(t0 time.Time) { tr.Span(c.WorkerID(), obs.KindWaveItem, t0, time.Since(t0), traceID) }(time.Now())
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	// The product runs at pb's depth, which pa is read at (conformPlans).
	sm, sn := pm.ms[i], pb.CSegs[j]
	var tc *Tiled
	var cm Mat
	t0, hdr := time.Now(), pa.hdr
	hdr.Curve, hdr.D, hdr.TC = pb.hdr.Curve, pb.D, pb.TC
	switch {
	case pm.pc != nil:
		cm = pm.pc.Block(i, j).Mat()
	case pm.direct:
		cm = inPlace(hdr, pm.C, sm, sn)
	default:
		tc = &ws.tc
		tc.refit(&ws.stats, hdr, sm.Len, sn.Len)
		if !pm.std {
			e.phase(ctx, obs.KindConvertIn, "recmat.convert-in", func() { e.zero(c, tc.Data) })
		}
		ws.stats.ConvertIn += time.Since(t0)
		cm = tc.Mat()
	}
	t1 := time.Now()

	// A deferred operand's segment is brought here, by its consumer: read
	// in place on the standard recursion, or packed into the runner's
	// buffer, which mat bills to ConvertIn.
	in0 := ws.stats.ConvertIn
	for kk := range pm.ks {
		am, bm := pa.mat(c, ws, &ws.one[0], sm, pm.ks[kk], hdr.D, pm.std), pb.mat(c, ws, &ws.one[1], pm.ks[kk], sn, hdr.D, pm.std)
		e.phase(ctx, obs.KindCompute, "recmat.compute", func() { e.mul(c, alg, cm, am, bm, kk == 0 && pm.std && pm.pc == nil) })
		if c.Cancelled() {
			return errRunCancelled
		}
		ws.stats.Blocks++
		ws.stats.PackReused += pm.reused
	}
	t2 := time.Now()
	ws.stats.Compute += t2.Sub(t1) - (ws.stats.ConvertIn - in0)
	if tc == nil {
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

// wave is the one block loop over the plan product's C blocks: walked in
// order by the calling runner or, when they are the parallelism (runners
// > 0, asWave), pulled by runners tasks. Each block completed is marked
// in ws.fin.
func (pm *planMul) wave(ctx context.Context, c *sched.Ctx, ws *waveWS, runners int, traceID int64) error {
	nn, fin := len(pm.pb.CSegs), ws.fin
	if runners == 0 {
		for b := range fin {
			if c.Cancelled() {
				return errRunCancelled
			}
			if err := pm.block(ctx, c, b/nn, b%nn, ws, traceID); err != nil {
				return err
			}
			fin[b] = true
		}
		return nil
	}
	// Only this branch hands pm and the runner's parameters to other
	// tasks, so a member whose blocks run in turn allocates nothing.
	p, e := *pm, ws.e
	e.serialCutoff = noSpawn
	err := pullWave(ctx, c, &e, runners, len(fin), &ws.stats, func(c *sched.Ctx, ws *waveWS, b int) error {
		err := p.block(ctx, c, b/nn, b%nn, ws, traceID)
		fin[b] = err == nil
		return err
	}, nil)
	if err == nil && slices.Contains(fin, false) { // the runners saw the run cancelled
		err = errRunCancelled
	}
	return err
}

// waveWS is one runner's workspace: its copy of the execution parameters
// (each member's kernel and cutoff swapped in), the product tile, the
// transient plans a member's operands are packed into, and the buffers
// of a deferred operand's segments (one). Buffers persist across the
// runner's steps, regrown only for a larger size class, and return to
// the pool once, when the wave drains.
type waveWS struct {
	e      exec
	err    error // the step error that stopped the runner
	tc     Tiled
	pa, pb Prepacked
	one    [2]Tiled
	stats  Stats
	// fin records, by C block, which of the member in hand's blocks have
	// completed, here or on the runners it spread to.
	fin []bool
}

// completed counts the member in hand's completed C blocks.
func (ws *waveWS) completed() (n int) {
	for _, f := range ws.fin {
		if f {
			n++
		}
	}
	return n
}

func (ws *waveWS) release() {
	releaseTiled(&ws.tc)
	releaseTiled(&ws.one[0])
	releaseTiled(&ws.one[1])
	ws.pa.Release()
	ws.pb.Release()
}

// pullWave is the one runner loop: the indices below count run on n
// runner tasks spawned from c — one on c's own frame — each with its own
// workspace (given back when the wave drains) and copy of e. Slot r runs
// index r first, then pulls them off a shared counter; a member wave's
// runner claims its next before running the one in hand, and ahead
// prefetches it, while more are unclaimed than there are runners. A step
// that returns an error or panics stops every runner, and the first error
// by runner is returned. The runners' counters are merged into stats, and
// the wave's wall time is apportioned to the three phase timers by the
// share of task time each phase took.
func pullWave(ctx context.Context, c *sched.Ctx, e *exec, n, count int, stats *Stats,
	step func(c *sched.Ctx, ws *waveWS, i int) error, ahead func(i int)) error {

	wss := make([]waveWS, n)
	defer func() {
		for r := range wss {
			wss[r].release()
		}
	}()
	var st struct {
		runner, next atomic.Int64
		stop         atomic.Bool
	}
	st.next.Store(int64(n))
	runner := func(c *sched.Ctx) {
		r := int(st.runner.Add(1)) - 1
		ws := &wss[r]
		ws.e = *e
		ws.e.shared = n > 1
		clean := false
		defer func() { st.stop.CompareAndSwap(false, !clean) }() // a panic stops every runner
		// i is the index in hand; j the next, claimed before i runs or after.
		for i, j := r, count; i < count && !st.stop.Load() && !c.Cancelled(); i = j {
			if j = count; ahead != nil && count-int(st.next.Load()) > n {
				if j = int(st.next.Add(1)) - 1; j < count {
					ahead(j)
				}
			}
			if err := step(c, ws, i); err != nil {
				ws.err = err
				return
			}
			if j >= count {
				j = int(st.next.Add(1)) - 1
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

// merge folds a runner workspace's counters into the call's stats.
func (s *Stats) merge(ws *Stats) {
	s.ConvertBytes += ws.ConvertBytes
	s.Blocks += ws.Blocks
	s.PoolHits += ws.PoolHits
	s.PoolMisses += ws.PoolMisses
	s.PackReused += ws.PackReused
	s.PackDeferred += ws.PackDeferred
}
