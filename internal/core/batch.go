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

// This file implements the batched GEMM path: many small/skinny
// multiplications scheduled as ONE task wave over the work-stealing
// pool, instead of N independent driver calls. A per-call driver pays
// root-task injection, β-scaling, admission, arena reservation, and the
// pack/compute/unpack phase structure per multiplication; for the
// serving shape (thousands of items far below the serial cutoff) that
// overhead, not flops, bounds throughput. The wave pays admission and
// the arena reservation once, then lets min(items, workers) runner
// tasks pull items off a shared atomic counter — conversions run
// serially inside each item (an item task already executes on a pool
// worker, so it must never re-enter pool.RunCtx), and the items
// themselves are the parallelism.
//
// Per-item contract (identical to GEMMCtx, per member): an item that
// fails validation leaves its C untouched; once an item starts, its C
// is β-scaled up front, and on cancellation or panic it holds exactly
// the β-scaled inputs plus fully-unpacked completed block products —
// never a partial product. One member's failure never poisons its wave
// siblings: each item runs under its own recover, with its own error
// slot, honoring its own context at phase boundaries.

// BatchItem is one member of a GEMMBatch wave. Items may differ in
// shape, scalars, and transposition; the Cs of distinct items must not
// alias each other (they are written concurrently).
type BatchItem struct {
	TransA, TransB bool
	Alpha          float64
	A, B           *matrix.Dense
	Beta           float64
	C              *matrix.Dense
	// Ctx, when non-nil, cancels this item alone: an expired member is
	// dropped from the wave (typed error in its slot), not the wave
	// from the member. It is honored at item phase boundaries — an
	// item already inside its compute finishes that product first.
	// nil means the item lives exactly as long as the wave context.
	Ctx context.Context
	// TraceID, when non-zero, attributes this item's execution to a
	// request: the item's wave-item span carries it as its arg, and the
	// exporter links it to the matching request lane with flow events.
	TraceID int64
}

// PrepackedBatchItem is one member of a GEMMPrepackedBatch wave: a raw
// right-hand side multiplied against the wave's shared prepacked A
// plan. B's conversion into the plan-conforming layout is fused into
// the wave task itself (the "per-item B/C packing" of the batched
// serving design), so no per-item PrepackConforming call — and no
// per-item plan allocation — is needed.
type PrepackedBatchItem struct {
	TransB bool
	Alpha  float64
	B      *matrix.Dense
	Beta   float64
	C      *matrix.Dense
	Ctx    context.Context
	// TraceID attributes this item to a request, as in BatchItem.
	TraceID int64
}

// BatchStats extends Stats with wave-level accounting. The embedded
// Stats fields aggregate over the whole wave (ConvertBytes, Blocks,
// pool and scheduler counters); geometry fields describe the largest
// item admitted.
type BatchStats struct {
	Stats
	// Items counts the members scheduled into the wave (validation
	// rejects are excluded); Completed counts members that ran to
	// completion.
	Items, Completed int
}

// itemGeom is one item's chosen tiling, leaf kernel and fast cutoff
// plus logical dimensions. Kernel and cutoff are resolved per geometry,
// not once per wave: a heterogeneous wave must give each item what its
// single-call twin would pick, or the differential bit-exactness
// guarantee breaks on the items whose tile shape differs from the
// largest member's.
type itemGeom struct {
	d          uint
	tm, tk, tn int
	m, k, n    int
	kern       leaf.Kernel
	skern      leaf.ScratchKernel
	kname      string
	cutoff     int
}

// resolveFast fills the item's kernel and, for a fast algorithm, its
// cutoff.
func (g *itemGeom) resolveFast(o Options) (err error) {
	if g.kern, g.skern, g.kname, err = resolveKernel(o, g.tm, g.tk, g.tn); err == nil {
		o.settle(g.kern, 1<<g.d, g.tm, g.tk, g.tn)
		g.cutoff = o.FastCutoff
	}
	return err
}

// packedElems returns the item's packed-buffer footprint in elements:
// the three wave-owned tiled buffers a concurrently-executing item
// holds (op(A), op(B), product).
func (g itemGeom) packedElems() int64 {
	ss := int64(1) << (2 * g.d)
	return ss * (int64(g.tm)*int64(g.tk) + int64(g.tk)*int64(g.tn) + int64(g.tm)*int64(g.tn))
}

// waveWS is one runner task's buffer workspace: value Tiled headers
// over recycled pool buffers, plus the runner's private exec copy (so
// the per-item kernel can be swapped in without racing the other
// runners). Buffers persist across the items a runner executes — they
// are acquired on first use, regrown only when an item needs a larger
// size class, and returned to the pool once when the runner drains.
// Steady-state waves therefore perform zero allocations per item. bs
// is the prepacked wave's per-k-segment packed-B set and pb the
// transient plan header over it; the split block wave uses tc alone.
type waveWS struct {
	e          exec
	ta, tb, tc Tiled
	bs         []Tiled
	pb         Prepacked
	stats      Stats
}

// release returns the runner's buffers to the recycling pool, once,
// when the runner drains (panic paths included, via the runner's
// defer).
func (ws *waveWS) release() {
	for _, t := range []*Tiled{&ws.tc, &ws.tb, &ws.ta} {
		putBuf(t.Data)
		t.Data = nil
	}
	for j := range ws.bs {
		putBuf(ws.bs[j].Data)
		ws.bs[j].Data = nil
	}
}

// waveExec carries one wave through its runner tasks.
type waveExec struct {
	e     *exec
	alg   Alg
	curve layout.Curve
	wctx  context.Context
	next  atomic.Int64
	errs  []error
	done  []bool
	ws    []waveWS
	// runItem executes one item on the calling runner; it must record
	// either errs[i] or done[i].
	runItem func(c *sched.Ctx, i int, ws *waveWS)
}

// run is the runner-task body: pull item indices off the shared counter
// until the wave is drained or cancelled. Items are claimed exactly
// once, so errs/done writes are race-free by construction.
func (wx *waveExec) run(c *sched.Ctx, r int) {
	ws := &wx.ws[r]
	ws.e = *wx.e
	defer ws.release()
	for {
		if c.Cancelled() {
			return
		}
		i := int(wx.next.Add(1)) - 1
		if i >= len(wx.errs) {
			return
		}
		if wx.errs[i] != nil { // validation reject: never scheduled
			continue
		}
		wx.runOne(c, i, ws)
	}
}

// runOne wraps one item in its own recover boundary: a panic anywhere
// in the item's conversions or compute (including an aggregated
// *sched.TaskError re-raised from its nested parallel products) lands
// in the item's error slot and the runner moves on to the next item.
func (wx *waveExec) runOne(c *sched.Ctx, i int, ws *waveWS) {
	defer func() {
		if r := recover(); r != nil {
			wx.errs[i] = recoveredError(r)
		}
	}()
	wx.runItem(c, i, ws)
}

// itemCtx resolves an item's cancellation scope.
func (wx *waveExec) itemCtx(ictx context.Context) context.Context {
	if ictx == nil {
		return wx.wctx
	}
	return ictx
}

// waveCause names why the wave's scheduler state is cancelled: the wave
// context's cause when it fired, otherwise the pool is closing.
func (wx *waveExec) waveCause() error {
	if err := context.Cause(wx.wctx); err != nil {
		return err
	}
	return sched.ErrPoolClosed
}

// notStarted and cancelledItem build the typed per-item errors.
func notStartedErr(i int, cause error) error {
	return fmt.Errorf("core: batch item %d not started: %w", i, cause)
}

func cancelledErr(i int, cause error) error {
	return fmt.Errorf("core: batch item %d cancelled: %w", i, cause)
}

// blockErr types a planMul.block failure for item i: a cancelled run
// names the wave's cause, an expired member (context ictx) its own;
// anything else is the item's failure as it stands.
func (wx *waveExec) blockErr(i int, ictx context.Context, err error) error {
	if err == errRunCancelled {
		return cancelledErr(i, wx.waveCause())
	}
	if cause := context.Cause(ictx); cause != nil && errors.Is(err, cause) {
		return cancelledErr(i, err)
	}
	return err
}

// reshape rewrites a workspace Tiled's header for the next item while
// leaving Data alone — assigning a fresh struct literal would clobber
// the persisted buffer and defeat the cross-item reuse.
func (t *Tiled) reshape(curve layout.Curve, d uint, tr, tc, rows, cols int) {
	t.Curve, t.D, t.TR, t.TC, t.Rows, t.Cols = curve, d, tr, tc, rows, cols
}

// acquireInto sizes a workspace Tiled's buffer to exactly n elements,
// reusing the runner's existing buffer when its capacity suffices (the
// steady-state path — no pool traffic, no allocation) and recycling
// through the buffer pool only on growth.
func acquireInto(t *Tiled, stats *Stats, n int) {
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
		return
	}
	putBuf(t.Data)
	b, hit := getBuf(n)
	notePool(stats, hit)
	t.Data = b
}

// batchItemGeom validates one GEMMBatch item and chooses its tiling.
// Items multiply as single blocks (no Figure-3 wide/lean splitting):
// the batch path targets small and serving shapes, where splitting
// never triggers; an extreme-aspect item still computes correctly, it
// just pads more than a per-call GEMM would.
func batchItemGeom(o Options, it *BatchItem) (itemGeom, error) {
	if it.A == nil || it.B == nil || it.C == nil {
		return itemGeom{}, fmt.Errorf("core: batch item with nil operand")
	}
	if !isFinite(it.Alpha) || !isFinite(it.Beta) {
		return itemGeom{}, fmt.Errorf("%w: alpha=%v, beta=%v", ErrNonFinite, it.Alpha, it.Beta)
	}
	m, k := it.A.Rows, it.A.Cols
	if it.TransA {
		m, k = k, m
	}
	kb, n := it.B.Rows, it.B.Cols
	if it.TransB {
		kb, n = n, kb
	}
	if kb != k {
		return itemGeom{}, fmt.Errorf("%w: inner dimensions disagree: op(A) is %dx%d, op(B) is %dx%d", ErrDimension, m, k, kb, n)
	}
	if it.C.Rows != m || it.C.Cols != n {
		return itemGeom{}, fmt.Errorf("%w: C is %dx%d, want %dx%d", ErrDimension, it.C.Rows, it.C.Cols, m, n)
	}
	g := itemGeom{m: m, k: k, n: n}
	if m == 0 || k == 0 || n == 0 {
		return g, nil
	}
	var err error
	if g.d, g.tm, g.tk, g.tn, err = choose(o, m, k, n); err != nil {
		return itemGeom{}, err
	}
	if err = g.resolveFast(o); err != nil {
		return itemGeom{}, err
	}
	return g, nil
}

// GEMMBatch computes C_i ← α_i·op(A_i)·op(B_i) + β_i·C_i for every item
// in one task wave over the pool: one admission/MemBudget charge for
// the wave (the packed-buffer term multiplied by the number of
// concurrently-executing items), one arena reservation sized by the
// largest item's depth-first path, per-item packing fused into the wave
// tasks, and the degradation ladder applied wave-wide.
//
// The returned errs has one slot per item (nil = success); err is
// non-nil only when the wave itself could not be scheduled (bad
// arguments, closed pool, admission rejection) — in that case no item
// ran and every C is untouched. A recursive layout is required; the
// canonical layouts have per-call conversion the batch path exists to
// avoid.
//
// When the wave has at least as many items as workers, items run
// serially inside (the wave itself saturates the pool, and suppressing
// nested spawns makes steady-state waves allocation-free per item);
// smaller waves of larger items keep nested parallelism.
func GEMMBatch(ctx context.Context, pool *sched.Pool, opts Options, items []BatchItem) (bs *BatchStats, errs []error, err error) {
	co := beginCall(0)
	defer func() { co.endBatch(opts.Metrics, bs, errs, err) }()
	defer func() {
		if r := recover(); r != nil {
			bs, errs, err = nil, nil, recoveredError(r)
		}
	}()
	o := opts.withDefaults()
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("core: GEMMBatch of zero items")
	}
	if o.Curve == layout.ColMajor || o.Curve == layout.RowMajor {
		return nil, nil, fmt.Errorf("core: GEMMBatch requires a recursive layout, got %v", o.Curve)
	}
	if pool == nil {
		p := sched.NewPool(0)
		defer p.Close()
		pool = p
	} else if pool.Closed() {
		return nil, nil, sched.ErrPoolClosed
	}
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("core: GEMMBatch not started: %w", context.Cause(ctx))
	}

	errs = make([]error, len(items))
	geoms := make([]itemGeom, len(items))
	live := 0
	var maxG itemGeom
	var perPacked int64
	for i := range items {
		// Identical consecutive shapes (the common homogeneous batch)
		// reuse the previous item's tiling without re-running choose.
		if i > 0 && errs[i-1] == nil && items[i].A != nil && items[i-1].A != nil &&
			items[i].TransA == items[i-1].TransA && items[i].TransB == items[i-1].TransB &&
			items[i].A.Rows == items[i-1].A.Rows && items[i].A.Cols == items[i-1].A.Cols &&
			items[i].B.Rows == items[i-1].B.Rows && items[i].B.Cols == items[i-1].B.Cols &&
			items[i].C != nil && items[i-1].C != nil &&
			items[i].C.Rows == items[i-1].C.Rows && items[i].C.Cols == items[i-1].C.Cols &&
			isFinite(items[i].Alpha) && isFinite(items[i].Beta) {
			geoms[i] = geoms[i-1]
		} else {
			g, gerr := batchItemGeom(o, &items[i])
			if gerr != nil {
				errs[i] = gerr
				continue
			}
			geoms[i] = g
		}
		g := geoms[i]
		live++
		if p := g.packedElems(); p > perPacked {
			perPacked = p
		}
		if int64(g.tm)*int64(g.tn)<<(2*g.d) > int64(maxG.tm)*int64(maxG.tn)<<(2*maxG.d) {
			maxG = g
		}
	}
	if live == 0 || maxG.tm == 0 {
		// Nothing to schedule: every item failed validation or is empty.
		bs = &BatchStats{Items: live, Completed: live}
		for i := range items {
			if errs[i] == nil {
				items[i].C.Scale(items[i].Beta)
			}
		}
		return bs, errs, nil
	}

	bs, e, ar, runners, err := admitWave(pool, o, co, geoms, errs, live, perPacked, maxG)
	if err != nil {
		return nil, nil, err
	}
	defer releaseArena(ar)

	wx := &waveExec{e: e, alg: bs.Alg, curve: o.Curve, wctx: ctx, errs: errs,
		done: make([]bool, len(items)), ws: make([]waveWS, runners)}
	wx.runItem = func(c *sched.Ctx, i int, ws *waveWS) {
		wx.runBatchItem(c, &items[i], geoms[i], i, ws)
	}

	runWave(ctx, pool, co, wx, runners, bs, ar)
	return bs, errs, nil
}

// runBatchItem executes one GEMMBatch member: β-scale, serial pack of
// both operands into recycled buffers, nested-parallel product, serial
// fused epilogue.
func (wx *waveExec) runBatchItem(c *sched.Ctx, it *BatchItem, g itemGeom, i int, ws *waveWS) {
	if tr := ws.e.tr; tr != nil {
		its := time.Now()
		defer func() {
			tr.Span(c.WorkerID(), obs.KindWaveItem, its, time.Since(its), it.TraceID)
		}()
	}
	ictx := wx.itemCtx(it.Ctx)
	if c.Cancelled() {
		wx.errs[i] = notStartedErr(i, wx.waveCause())
		return
	}
	if ierr := ictx.Err(); ierr != nil {
		wx.errs[i] = notStartedErr(i, context.Cause(ictx))
		return
	}
	// β up front: the item's atomicity anchor. Serial is fine — the
	// wave's parallelism is across items.
	it.C.Scale(it.Beta)
	if it.Alpha == 0 || g.m == 0 || g.n == 0 || g.k == 0 {
		wx.done[i] = true
		return
	}
	ss := 1 << (2 * g.d)
	ws.ta.reshape(wx.curve, g.d, g.tm, g.tk, g.m, g.k)
	acquireInto(&ws.ta, &ws.stats, ss*g.tm*g.tk)
	if err := ws.ta.packSerial(it.A, it.TransA, 1); err != nil {
		wx.errs[i] = err
		return
	}
	ws.tb.reshape(wx.curve, g.d, g.tk, g.tn, g.k, g.n)
	acquireInto(&ws.tb, &ws.stats, ss*g.tk*g.tn)
	if err := ws.tb.packSerial(it.B, it.TransB, 1); err != nil {
		wx.errs[i] = err
		return
	}
	ws.tc.reshape(wx.curve, g.d, g.tm, g.tn, g.m, g.n)
	acquireInto(&ws.tc, &ws.stats, ss*g.tm*g.tn)
	vZero(ws.tc.Data)
	ws.stats.ConvertBytes += 8 * int64(len(ws.ta.Data)+len(ws.tb.Data))
	if ierr := ictx.Err(); ierr != nil {
		wx.errs[i] = cancelledErr(i, context.Cause(ictx))
		return
	}
	if c.Cancelled() {
		wx.errs[i] = cancelledErr(i, wx.waveCause())
		return
	}
	ws.e.kern, ws.e.skern, ws.e.fastCutoff = g.kern, g.skern, g.cutoff
	ws.e.mul(c, wx.alg, ws.tc.Mat(), ws.ta.Mat(), ws.tb.Mat())
	if c.Cancelled() {
		// The product may be partial — drop it; C stays exactly
		// β-scaled (the per-item atomicity contract).
		wx.errs[i] = cancelledErr(i, wx.waveCause())
		return
	}
	if ierr := ictx.Err(); ierr != nil {
		// Expired member: dropped from the wave before its epilogue,
		// leaving its C β-scaled; siblings are unaffected.
		wx.errs[i] = cancelledErr(i, context.Cause(ictx))
		return
	}
	ws.tc.unpackAccumulateSerial(it.C, it.Alpha)
	ws.stats.ConvertBytes += 8 * int64(len(ws.tc.Data))
	ws.stats.Blocks++
	wx.done[i] = true
}

// runWave submits the wave as one root task: the root spawns the runner
// tasks, which drain the shared item counter. Wave-level failures
// (outer-context cancellation, a fault injected into a runner task's
// frame outside any item's recover) are attributed only to items with
// no recorded outcome — completed members keep their results, errored
// members keep their own causes.
func runWave(ctx context.Context, pool *sched.Pool, co callObs, wx *waveExec, runners int, bs *BatchStats, ar *arena) {
	c0 := startCall(pool, co.t0)
	t1 := time.Now()
	fns := make([]func(*sched.Ctx), runners)
	for r := 0; r < runners; r++ {
		r := r
		fns[r] = func(c *sched.Ctx) { wx.run(c, r) }
	}
	work, span, rerr := pool.RunCtx(ctx, func(c *sched.Ctx) { c.Parallel(fns...) })
	bs.Compute = time.Since(t1)
	bs.Work, bs.Span = work, span
	for i := range wx.errs {
		if wx.done[i] {
			bs.Completed++
			continue
		}
		if wx.errs[i] == nil {
			if rerr != nil {
				wx.errs[i] = fmt.Errorf("core: batch item %d aborted: %w", i, rerr)
			} else {
				wx.errs[i] = fmt.Errorf("core: batch item %d aborted before it ran", i)
			}
		}
	}
	for r := range wx.ws {
		bs.Stats.merge(&wx.ws[r].stats)
	}
	if ar != nil {
		bs.AllocBytes = 8 * ar.fallbackElems.Load()
	}
	finishStats(&bs.Stats, pool, c0)
}

// GEMMPrepackedBatch computes C_i ← α_i·(plan A)·op(B_i) + β_i·C_i for
// every item in one wave: the shared A plan is packed once (at Prepack
// time), each item's B is packed into the plan-conforming geometry
// inside its wave task, and the product accumulates through the same
// pooled-tile fused epilogue GEMMPrepacked uses. Admission runs once
// for the wave with resident plan semantics — only the wave-owned
// per-item buffers (packed B, product tile) are charged, multiplied by
// the number of concurrently-executing items.
//
// Conformance per item: op(B_i) must have pa.Cols rows; the free
// dimension may vary per item (each gets its own tile width, chosen
// exactly as PrepackConforming would for an unsplit free dimension).
// Error semantics match GEMMBatch: errs per item, err only for
// wave-level scheduling failures.
func GEMMPrepackedBatch(ctx context.Context, pool *sched.Pool, opts Options, pa *Prepacked, items []PrepackedBatchItem) (bs *BatchStats, errs []error, err error) {
	co := beginCall(0)
	defer func() { co.endBatch(opts.Metrics, bs, errs, err) }()
	defer func() {
		if r := recover(); r != nil {
			bs, errs, err = nil, nil, recoveredError(r)
		}
	}()
	o := opts.withDefaults()
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("core: GEMMPrepackedBatch of zero items")
	}
	if pa == nil || pa.released {
		return nil, nil, fmt.Errorf("core: GEMMPrepackedBatch with nil or released plan")
	}
	if pool == nil {
		p := sched.NewPool(0)
		defer p.Close()
		pool = p
	} else if pool.Closed() {
		return nil, nil, sched.ErrPoolClosed
	}
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("core: GEMMPrepackedBatch not started: %w", context.Cause(ctx))
	}

	d, tm, tk := pa.D, pa.TR, pa.TC
	nks := len(pa.CSegs)
	errs = make([]error, len(items))
	geoms := make([]itemGeom, len(items))
	live := 0
	var maxG itemGeom // the widest member
	var perPacked int64
	for i := range items {
		it := &items[i]
		if it.B == nil || it.C == nil {
			errs[i] = fmt.Errorf("core: batch item with nil operand")
			continue
		}
		if !isFinite(it.Alpha) || !isFinite(it.Beta) {
			errs[i] = fmt.Errorf("%w: alpha=%v, beta=%v", ErrNonFinite, it.Alpha, it.Beta)
			continue
		}
		kb, n := it.B.Rows, it.B.Cols
		if it.TransB {
			kb, n = n, kb
		}
		if kb != pa.Cols {
			errs[i] = fmt.Errorf("%w: op(B) has %d rows, plan's inner dimension is %d", ErrDimension, kb, pa.Cols)
			continue
		}
		if it.C.Rows != pa.Rows || it.C.Cols != n {
			errs[i] = fmt.Errorf("core: C is %dx%d, want %dx%d", it.C.Rows, it.C.Cols, pa.Rows, n)
			continue
		}
		if n == 0 {
			geoms[i] = itemGeom{d: d, tm: tm, tk: tk, m: pa.Rows, k: pa.Cols}
			live++
			continue
		}
		// The conforming free-dimension tile, chosen exactly as
		// PrepackConforming does for an unsplit free dimension.
		tn := conformTile(o.Tile, n, d)
		if _, _, _, derr := paddedDims(d, tm, tk, tn); derr != nil {
			errs[i] = derr
			continue
		}
		g := itemGeom{d: d, tm: tm, tk: tk, tn: tn, m: pa.Rows, k: pa.Cols, n: n}
		// Per-tile-width kernel and cutoff, as GEMMPrepacked would resolve
		// for a conforming plan of this width (bit-exactness vs the looped
		// form); consecutive same-width items reuse the lookup.
		if i > 0 && errs[i-1] == nil && geoms[i-1].tn == tn && geoms[i-1].kname != "" {
			g.kern, g.skern, g.kname, g.cutoff = geoms[i-1].kern, geoms[i-1].skern, geoms[i-1].kname, geoms[i-1].cutoff
		} else if errs[i] = g.resolveFast(o); errs[i] != nil {
			continue
		}
		geoms[i] = g
		live++
		if tn > maxG.tn {
			maxG = g
		}
		ss := int64(1) << (2 * d)
		if p := ss * int64(tn) * (int64(tk)*int64(nks) + int64(tm)); p > perPacked {
			perPacked = p
		}
	}
	if live == 0 || maxG.tn == 0 {
		bs = &BatchStats{Items: live, Completed: live}
		for i := range items {
			if errs[i] == nil {
				items[i].C.Scale(items[i].Beta)
			}
		}
		return bs, errs, nil
	}

	bs, e, ar, runners, err := admitWave(pool, o, co, geoms, errs, live, perPacked, maxG)
	if err != nil {
		return nil, nil, err
	}
	defer releaseArena(ar)

	wx := &waveExec{e: e, alg: bs.Alg, curve: pa.Curve, wctx: ctx, errs: errs,
		done: make([]bool, len(items)), ws: make([]waveWS, runners)}
	for r := range wx.ws {
		// Each runner's packed-B set, and the transient plan over it that
		// the shared block loop multiplies the resident A plan against.
		ws := &wx.ws[r]
		ws.bs = make([]Tiled, nks)
		ws.pb = Prepacked{Curve: pa.Curve, D: d, TR: tk, RSegs: pa.CSegs,
			CSegs: make([]tile.Seg, 1), blocks: make([]*Tiled, nks)}
		for s := range ws.bs {
			ws.pb.blocks[s] = &ws.bs[s]
		}
	}
	wx.runItem = func(c *sched.Ctx, i int, ws *waveWS) {
		wx.runPrepackedItem(c, pa, &items[i], geoms[i], i, ws)
	}

	runWave(ctx, pool, co, wx, runners, bs, ar)
	return bs, errs, nil
}

// runPrepackedItem executes one GEMMPrepackedBatch member: β-scale,
// serial pack of the conforming right-hand side (one tile set per plan
// k-segment) into the runner's transient plan, then the member's C
// blocks through the shared block loop (planMul.block), serial on this
// worker.
func (wx *waveExec) runPrepackedItem(c *sched.Ctx, pa *Prepacked, it *PrepackedBatchItem, g itemGeom, i int, ws *waveWS) {
	if tr := ws.e.tr; tr != nil {
		its := time.Now()
		defer func() {
			tr.Span(c.WorkerID(), obs.KindWaveItem, its, time.Since(its), it.TraceID)
		}()
	}
	ictx := wx.itemCtx(it.Ctx)
	if c.Cancelled() {
		wx.errs[i] = notStartedErr(i, wx.waveCause())
		return
	}
	if ierr := ictx.Err(); ierr != nil {
		wx.errs[i] = notStartedErr(i, context.Cause(ictx))
		return
	}
	it.C.Scale(it.Beta)
	if it.Alpha == 0 || g.n == 0 {
		wx.done[i] = true
		return
	}
	ws.e.kern, ws.e.skern, ws.e.fastCutoff = g.kern, g.skern, g.cutoff
	ss := 1 << (2 * g.d)
	for s := range pa.CSegs {
		ks := pa.CSegs[s]
		ws.bs[s].reshape(pa.Curve, g.d, g.tk, g.tn, ks.Len, g.n)
		acquireInto(&ws.bs[s], &ws.stats, ss*g.tk*g.tn)
		bv := opView(it.B, it.TransB, ks, tile.Seg{Off: 0, Len: g.n})
		if err := ws.bs[s].packSerial(bv, it.TransB, 1); err != nil {
			wx.errs[i] = err
			return
		}
		ws.stats.ConvertBytes += 8 * int64(len(ws.bs[s].Data))
	}
	ws.pb.TC, ws.pb.Cols, ws.pb.CSegs[0].Len = g.tn, g.n, g.n
	pm := planMul{alg: wx.alg, alpha: it.Alpha, pa: pa, pb: &ws.pb, C: it.C, reused: 1}
	for bi := range pa.RSegs {
		if err := pm.block(ictx, nil, c, bi, 0, ws); err != nil {
			wx.errs[i] = wx.blockErr(i, ictx, err)
			return
		}
	}
	wx.done[i] = true
}

// GEMMBatchStrided is the equal-shape form: count items laid out at
// fixed strides in three flat buffers, the dominant strided-batch
// calling convention of inference serving. Item i multiplies the m×k
// (k×m when transA) column-major matrix at a[i·strideA] with leading
// dimension lda, and so on for B and C; alpha and beta are shared.
// Views are built without copying and the batch runs through GEMMBatch.
func GEMMBatchStrided(ctx context.Context, pool *sched.Pool, opts Options, transA, transB bool,
	m, k, n int, alpha float64, a []float64, lda, strideA int, b []float64, ldb, strideB int,
	beta float64, cbuf []float64, ldc, strideC int, count int) (*BatchStats, []error, error) {

	if count <= 0 {
		return nil, nil, fmt.Errorf("core: GEMMBatchStrided of %d items", count)
	}
	if m < 0 || k < 0 || n < 0 {
		return nil, nil, fmt.Errorf("%w: %dx%dx%d", ErrDimension, m, k, n)
	}
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	if err := checkStrided("A", a, ar, ac, lda, strideA, count); err != nil {
		return nil, nil, err
	}
	if err := checkStrided("B", b, br, bc, ldb, strideB, count); err != nil {
		return nil, nil, err
	}
	if err := checkStrided("C", cbuf, m, n, ldc, strideC, count); err != nil {
		return nil, nil, err
	}
	items := make([]BatchItem, count)
	for i := range items {
		items[i] = BatchItem{
			TransA: transA, TransB: transB, Alpha: alpha, Beta: beta,
			A: matrix.FromSlice(a[i*strideA:], ar, ac, lda),
			B: matrix.FromSlice(b[i*strideB:], br, bc, ldb),
			C: matrix.FromSlice(cbuf[i*strideC:], m, n, ldc),
		}
	}
	return GEMMBatch(ctx, pool, opts, items)
}

// checkStrided validates one strided-batch operand buffer: the leading
// dimension must cover the rows, the stride must separate items by at
// least one full matrix, and the last item must fit the buffer.
func checkStrided(name string, buf []float64, rows, cols, ld, stride, count int) error {
	if rows == 0 || cols == 0 {
		return nil
	}
	if ld < rows {
		return fmt.Errorf("%w: %s leading dimension %d < rows %d", ErrDimension, name, ld, rows)
	}
	foot := ld*(cols-1) + rows
	if stride < foot {
		return fmt.Errorf("%w: %s stride %d < item footprint %d", ErrDimension, name, stride, foot)
	}
	if need := (count-1)*stride + foot; need > len(buf) {
		return fmt.Errorf("%w: %s buffer holds %d elements, %d items at stride %d need %d",
			ErrDimension, name, len(buf), count, stride, need)
	}
	return nil
}

// admitWave is the once-per-wave decision of the batched drivers: one
// algorithm (mixed waves would defeat the arena sizing; AlgAuto resolves
// on the largest member maxG), one MemBudget charge (a member's buffers
// times the members in flight), the execution parameters, the arena
// sized by the longest depth-first path over the members, each at its
// own cutoff, the runner count, and the wave's stats, described by
// maxG. A wave of at least as many members as workers saturates the
// pool by itself, so nested spawns inside members are turned off — they
// would only add task overhead and per-spawn closures; smaller waves
// keep nested parallelism.
func admitWave(pool *sched.Pool, o Options, co callObs, geoms []itemGeom, errs []error, live int,
	perPacked int64, maxG itemGeom) (bs *BatchStats, e *exec, ar *arena, runners int, err error) {

	o.FastCutoff = maxG.cutoff
	o.settle(maxG.kern, 1<<maxG.d, maxG.tm, maxG.tk, maxG.tn)
	scratch := 0
	for i, g := range geoms {
		if errs[i] == nil {
			scratch = max(scratch, g.tm*g.tk+g.tk*g.tn)
		}
	}
	arenaPer := func(alg Alg) (per int64) {
		for i, g := range geoms {
			if errs[i] == nil && g.tm > 0 {
				per = max(per, arenaStackElems(alg, 1<<g.d, 1<<g.d, 1<<g.d, g.tm, g.tk, g.tn, g.cutoff))
			}
		}
		return per
	}
	w := pool.Workers()
	runners = min(live, w)
	ad, err := admit(o, w, charge{perBlock: perPacked, inflight: runners, scratch: scratch,
		arena: arenaPer, what: func() string { return fmt.Sprintf("a wave of %d items", live) }})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	stacks := w
	if ad.serial {
		runners, stacks = 1, 1
	}
	e = newExec(o, co, maxG.kern, maxG.skern, ad.serial || live >= w)
	ar = acquireArenaElems(arenaPer(ad.alg), stacks)
	e.ar = ar
	co.admitted(ad.notes, ar)
	side := 1 << maxG.d
	bs = &BatchStats{Items: live, Stats: Stats{Depth: maxG.d, TileM: maxG.tm, TileK: maxG.tk, TileN: maxG.tn,
		PaddedM: maxG.tm * side, PaddedK: maxG.tk * side, PaddedN: maxG.tn * side,
		Kernel: maxG.kname, Alg: ad.alg, Serial: ad.serial, Degraded: ad.notes,
		FastCutoff: o.FastCutoff, FastLevels: fastLevels(ad.alg, side, side, side, o.FastCutoff),
		EstimatedBytes: ad.est, ArenaBytes: ar.bytes()}}
	return bs, e, ar, runners, nil
}

// endBatch is callObs.end for a wave: the whole-call span, then the
// batch metrics.
func (co callObs) endBatch(m *obs.Registry, bs *BatchStats, errs []error, err error) {
	if co.tr != nil {
		co.tr.LaneSpan(co.lane, obs.KindGEMM, co.t0, time.Since(co.t0), 0)
	}
	recordBatchMetrics(m, bs, errs, err, time.Since(co.t0))
}

// recordBatchMetrics aggregates one finished wave into the registry:
// the wave counts as one gemm_call (recordCallMetrics), plus the
// batch-path counters — waves, items, per-item failures, and the wave
// size histogram that shows how much per-call overhead was amortized.
func recordBatchMetrics(m *obs.Registry, bs *BatchStats, errs []error, err error, wall time.Duration) {
	if m == nil {
		return
	}
	m.Counter(metricBatchCalls).Inc()
	var stats *Stats
	if bs != nil {
		stats = &bs.Stats
		m.Counter(metricBatchItems).Add(int64(bs.Items))
		m.Histogram(metricBatchSize, obs.BatchBuckets).Observe(float64(bs.Items))
	}
	var nerr int64
	for _, e := range errs {
		if e != nil {
			nerr++
		}
	}
	if nerr > 0 {
		m.Counter(metricBatchErrors).Add(nerr)
	}
	recordCallMetrics(m, stats, err, wall)
}
