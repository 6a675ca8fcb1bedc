package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file is the batched GEMM path: a batch is a wave of plans. Many
// multiplications run as ONE task wave over the work-stealing pool
// instead of N driver calls, which at the serving shape (thousands of
// items far below the serial cutoff) pay more for root-task injection,
// admission and the arena reservation than for flops. The wave pays
// those once: one admission (a member's bill, its plan's charge, times
// the members in flight), one arena, one scheduler run, and
// min(items, workers) runner tasks of the one runner loop (pullWave).
//
// A member is a plan product run serially on its runner. The planner
// (planOf) gives it the split, the geometry, the kernel and the cutoff
// it gives its single-call twin — GEMMCtx's for a GEMMBatch member,
// PrepackConforming's for a right-hand side of GEMMPrepackedBatch's
// resident A — the runner packs
// whichever operands are not resident into its reused transient plans,
// and every C block goes through planMul.block. So a member's result is
// bit for bit its twin's, split or not, and the members are the
// parallelism.
//
// Per-member contract (GEMMCtx's): a member that fails validation
// leaves its C untouched; once it starts, its C is β-scaled up front,
// and on cancellation or panic it holds exactly the β-scaled input plus
// whole completed C blocks — never a partial product. One member's
// failure never poisons its wave siblings: each runs under its own
// recover, with its own error slot, honoring its own context at block
// boundaries.

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
	// from the member. It is honored when the item starts and at its C
	// block boundaries — an item already inside a block's product
	// finishes that product first. nil means the item lives exactly as
	// long as the wave context.
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
// pool and scheduler counters); geometry fields describe the dearest
// member, the one whose buffers set the wave's admission charge.
type BatchStats struct {
	Stats
	// Items counts the members scheduled into the wave (validation
	// rejects are excluded); Completed counts members that ran to
	// completion.
	Items, Completed int
}

// wave carries one batch through its runner tasks.
type wave struct {
	ctx    context.Context
	pa     *Prepacked // the resident A plan; nil when every member packs its own
	alg    Alg
	items  []BatchItem
	shapes []*plan // by item, what its single-call twin would plan; nil for a validation reject
	errs   []error
}

// errNotRun fills a scheduled member's error slot until the member has
// run: what is left of it after the wave marks the members a wave-level
// failure kept from running.
var errNotRun = errors.New("core: batch item aborted before it ran")

// GEMMBatch computes C_i ← α_i·op(A_i)·op(B_i) + β_i·C_i for every item
// in one task wave over the pool: one admission/MemBudget charge for
// the wave (a member's bill times the members in flight), one arena
// reservation sized by the longest depth-first path over the members,
// per-item packing fused into the wave tasks, and the degradation
// ladder applied wave-wide. Each item is planned as GEMMCtx would plan
// it — wide/lean items split (Figure 3; DisableSplit applies) — and is
// bit for bit what GEMMCtx computes.
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
func GEMMBatch(ctx context.Context, pool *sched.Pool, opts Options, items []BatchItem) (*BatchStats, []error, error) {
	return runBatch(ctx, pool, opts, "GEMMBatch", nil, items)
}

// GEMMPrepackedBatch computes C_i ← α_i·(plan A)·op(B_i) + β_i·C_i for
// every item in one wave: GEMMBatch with A resident. The shared plan
// was packed once (at Prepack time); each item's B is packed inside its
// wave task into the geometry PrepackConforming would give it — op(B_i)
// must have pa.Cols rows, the free dimension may vary per item and
// splits as a direct call's would — so an item is bit for bit
// PrepackConforming + GEMMPrepacked. Admission charges only what the
// wave owns (packed B, product tile), times the items in flight. Error
// semantics match GEMMBatch.
func GEMMPrepackedBatch(ctx context.Context, pool *sched.Pool, opts Options, pa *Prepacked, items []PrepackedBatchItem) (*BatchStats, []error, error) {
	if pa == nil {
		pa = &Prepacked{released: true} // rejected below, as a released plan is
	}
	members := make([]BatchItem, len(items))
	for i, it := range items {
		members[i] = BatchItem{TransB: it.TransB, Alpha: it.Alpha, B: it.B, Beta: it.Beta, C: it.C, Ctx: it.Ctx, TraceID: it.TraceID}
	}
	return runBatch(ctx, pool, opts, "GEMMPrepackedBatch", pa, members)
}

// runBatch is the body of both wave entry points: validate and plan
// every member, admit the wave once, run it.
func runBatch(ctx context.Context, pool *sched.Pool, opts Options, name string, pa *Prepacked, items []BatchItem) (bs *BatchStats, errs []error, err error) {
	cl, err := enter(ctx, pool, opts, name, 0)
	defer func() {
		if err != nil {
			errs = nil // a wave that failed as a whole reports no per-item errors
		}
		cl.endBatch(bs, errs, err)
	}()
	defer leave(cl, &bs, &err)
	if err != nil {
		return nil, nil, err
	}
	o := cl.o
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("core: %s of zero items", name)
	}
	gv := given{pa: pa, resident: true}
	if pa != nil {
		if pa.released {
			return nil, nil, fmt.Errorf("core: %s with nil or released plan", name)
		}
		o.Curve = pa.Curve
	} else if o.Curve == layout.ColMajor || o.Curve == layout.RowMajor {
		return nil, nil, fmt.Errorf("core: %s requires a recursive layout, got %v", name, o.Curve)
	}

	// Plan every member before any C is touched. Consecutive members of
	// one shape (the common homogeneous batch) share the plan.
	//
	// The wave's bill is the dearest member's, times the members in
	// flight; scratch and arena are the largest any member needs, each at
	// its own cutoff. One algorithm runs the whole wave — mixed ones would
	// defeat the one ladder and arena. AlgAuto settles per shape, and the
	// wave takes the fast algorithm if any member keeps a fast level: a
	// member that keeps none runs it straight into the standard
	// recursion, the bits of its Standard twin.
	w := &wave{ctx: ctx, pa: pa, items: items, errs: make([]error, len(items)), shapes: make([]*plan, len(items))}
	errs = w.errs
	var last, dearest *plan
	live, alg := 0, o.Alg
	var ch charge
	for i := range items {
		it := &items[i]
		if it.B == nil || it.C == nil || pa == nil && it.A == nil {
			errs[i] = fmt.Errorf("core: batch item with nil operand")
			continue
		}
		var m, k int
		if pa != nil {
			m, k = pa.Rows, pa.Cols
		} else {
			m, k = opShape(it.A, it.TransA)
		}
		kb, n := opShape(it.B, it.TransB)
		if errs[i] = conform(it.Alpha, it.Beta, m, k, kb, n, it.C); errs[i] != nil {
			continue
		}
		if last == nil || last.m != m || last.k != k || last.n != n {
			sh, serr := planOf(o, 0, gv, m, k, n)
			if serr != nil {
				errs[i] = serr
				continue
			}
			last = sh
			if sh.ns != nil {
				if bill := sh.ch.held(sh.ch.plan) + sh.ch.perBlock; bill > ch.perBlock {
					ch.perBlock, dearest = bill, sh
				}
				ch.scratch = max(ch.scratch, sh.ch.scratch)
				if alg == AlgAuto || tableOf(sh.alg).fast() {
					alg = sh.alg
				}
			}
		}
		w.shapes[i] = last
		live++
	}
	bs = &BatchStats{Items: live}
	if dearest == nil {
		// Nothing to schedule: every item failed validation or is empty.
		bs.Completed = live
		for i, sh := range w.shapes {
			if sh != nil {
				items[i].C.Scale(items[i].Beta)
			}
		}
		return bs, errs, nil
	}
	ch.what = func() string { return fmt.Sprintf("a wave of %d items", live) }
	ch.arena = func(alg Alg) (per int64) {
		for i, sh := range w.shapes {
			if sh != nil && sh.ns != nil && (i == 0 || sh != w.shapes[i-1]) {
				per = max(per, sh.ch.arena(alg))
			}
		}
		return per
	}

	// A wave of at least as many members as workers saturates the pool
	// by itself, so nested spawns inside members are turned off — they
	// would only add task overhead and per-spawn closures; smaller waves
	// keep nested parallelism. Stats describe the dearest member.
	workers := cl.pool.Workers()
	ch.inflight = min(live, workers)
	wp := *dearest
	wp.alg, wp.ch, wp.runners = alg, ch, ch.inflight
	pc, err := admitPlan(cl, &wp)
	if err != nil {
		return nil, nil, err
	}
	if live >= workers {
		pc.e.serialCutoff = noSpawn
	}
	w.alg = pc.alg
	pc.start(cl, &bs.Stats)
	defer releaseArena(pc.ar)

	// Wave-level failures (outer-context cancellation, a fault injected
	// into a runner task's frame outside any member's recover) are
	// attributed only to members with no recorded outcome — completed
	// members keep their results, errored members keep their own causes.
	for i, sh := range w.shapes {
		if sh != nil {
			errs[i] = errNotRun
		}
	}
	rerr := cl.run(ctx, &bs.Stats, func(c *sched.Ctx) error {
		return pullWave(ctx, c, pc.e, max(pc.runners, 1), len(items), &bs.Stats, w.step)
	})
	for i := range errs {
		if errs[i] == nil {
			bs.Completed++
		} else if errs[i] == errNotRun && rerr != nil {
			errs[i] = fmt.Errorf("core: batch item %d aborted: %w", i, rerr)
		}
	}
	pc.finish(cl, &bs.Stats)
	return bs, errs, nil
}

// step is the runner loop's body for member i, under the member's own
// recover boundary: a panic anywhere in its conversions or compute
// (including an aggregated *sched.TaskError re-raised from its nested
// parallel products) lands in the member's error slot and the runner
// moves on to the next. Members are claimed exactly once, so errs
// writes are race-free by construction.
func (w *wave) step(c *sched.Ctx, ws *waveWS, i int) error {
	if w.shapes[i] == nil { // validation reject: never scheduled
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			w.errs[i] = recoveredError(r)
		}
	}()
	w.errs[i] = w.member(c, ws, i)
	return nil
}

// member executes one member on the calling runner: β-scale, pack of
// the operands that are not resident into the runner's transient plans,
// then its C blocks through the shared block loop (planMul.block) — each
// step serial on this worker when the wave has as many members as
// workers, spread by the runner's rule (exec.spawns) in a smaller one.
func (w *wave) member(c *sched.Ctx, ws *waveWS, i int) error {
	it, sh := &w.items[i], w.shapes[i]
	if tr := ws.e.tr; tr != nil {
		its := time.Now()
		defer func() {
			tr.Span(c.WorkerID(), obs.KindWaveItem, its, time.Since(its), it.TraceID)
		}()
	}
	// An expired member is dropped from the wave, not the wave from the
	// member; nil means it lives exactly as long as the wave context.
	ictx := it.Ctx
	if ictx == nil {
		ictx = w.ctx
	}
	if c.Cancelled() {
		return fmt.Errorf("core: batch item %d not started: %w", i, w.cause())
	}
	if ictx.Err() != nil {
		return fmt.Errorf("core: batch item %d not started: %w", i, context.Cause(ictx))
	}
	// β up front: the member's atomicity anchor.
	ws.e.scaleC(c, it.C, it.Beta)
	if it.Alpha == 0 || sh.ns == nil {
		return nil
	}
	ws.e.kernel, ws.e.fastCutoff = sh.kernel, sh.cutoff
	pm := planMul{alg: w.alg, alpha: it.Alpha, beta: it.Beta, pa: w.pa, pb: &ws.pb, C: it.C, reused: 1}
	t0 := time.Now()
	if pm.pa == nil {
		pm.pa, pm.reused = &ws.pa, 0
		ws.pa.repack(&ws.e, c, &ws.stats, sh.g.hdrA(), sh.ms, sh.ks, it.A, it.TransA)
	}
	ws.pb.repack(&ws.e, c, &ws.stats, sh.g.hdrB(), sh.ks, sh.ns, it.B, it.TransB)
	ws.stats.ConvertIn += time.Since(t0)
	for b := 0; b < len(sh.ms)*len(sh.ns); b++ {
		// A block fails only by cancellation: the run's, whose own error
		// carries no cause a member could name, or the member's context's.
		if err := pm.block(ictx, c, b/len(sh.ns), b%len(sh.ns), ws); err == errRunCancelled {
			return fmt.Errorf("core: batch item %d cancelled: %w", i, w.cause())
		} else if err != nil {
			return fmt.Errorf("core: batch item %d cancelled: %w", i, err)
		}
	}
	return nil
}

// cause names why the wave's scheduler run is cancelled: the wave
// context's cause when it fired, otherwise the pool is closing.
func (w *wave) cause() error {
	if err := context.Cause(w.ctx); err != nil {
		return err
	}
	return sched.ErrPoolClosed
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

// endBatch is call.end for a wave: the whole-call span, then the batch
// metrics.
func (cl *call) endBatch(bs *BatchStats, errs []error, err error) {
	if cl.tr != nil {
		cl.tr.LaneSpan(cl.lane, obs.KindGEMM, cl.t0, time.Since(cl.t0), 0)
	}
	recordBatchMetrics(cl.o.Metrics, bs, errs, err, time.Since(cl.t0))
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
