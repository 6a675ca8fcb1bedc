package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file is the batched GEMM path: many multiplications as ONE task
// wave over the pool instead of N driver calls, which at the serving
// shape pay more for root-task injection, admission and the arena than
// for flops. A member is planned and run exactly as its single-call twin
// (GEMMCtx, or PrepackConforming + GEMMPrepacked against a resident A),
// with its twin's bits and per-member failure contract; one member's
// failure never poisons its siblings.

// BatchItem is one member of a GEMMBatch wave. Items may differ in
// shape, scalars, and transposition; no item's C may overlap another's C
// or any item's A or B: Cs are written while operands are read in place.
type BatchItem struct {
	TransA, TransB bool
	Alpha          float64
	A, B           *matrix.Dense
	Beta           float64
	C              *matrix.Dense
	// Ctx, when non-nil, cancels this item alone, when it starts and at
	// its C block boundaries; nil: it lives as long as the wave context.
	Ctx context.Context
	// TraceID, when non-zero, attributes the item to a request: each of
	// its C blocks is a wave-item span carrying it, which the exporter
	// links to the request's lane.
	TraceID int64
}

// PrepackedBatchItem is one member of a GEMMPrepackedBatch wave: a raw
// right-hand side against the wave's shared A plan, packed inside the
// wave task — no per-item PrepackConforming call or plan allocation.
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
// member, the one whose buffers set the wave's admission charge — for a
// wave of one, exactly what GEMMCtx reports for the same product.
type BatchStats struct {
	Stats
	// Items counts the members scheduled into the wave (validation
	// rejects are excluded); Completed counts members that ran to
	// completion.
	Items, Completed int
}

// GEMMBatch computes C_i ← α_i·op(A_i)·op(B_i) + β_i·C_i for every item
// in one task wave over the pool: one admission/MemBudget charge (a
// member's bill times the members in flight), one arena, and the
// degradation ladder applied wave-wide. Each item is planned as GEMMCtx
// would plan it and is bit for bit what GEMMCtx computes; a wave of one
// plans, admits, probes and degrades exactly as its GEMMCtx twin. Under
// MaxResidualGrowth the probe runs once per distinct member shape that
// keeps a fast level, and any failure degrades the whole wave to
// Standard, as the budget ladder does. A wave of at least as many items
// as workers runs each serially on its runner (allocation-free per item
// in steady state); a smaller one spreads each item across the pool.
// No item's C may overlap another item's C, A or B (BatchItem).
//
// errs has one slot per item (nil = success); err is non-nil only when
// the wave itself could not be scheduled (bad arguments, closed pool,
// admission rejection, a run that never began): then no item ran and
// every C is untouched.
func GEMMBatch(ctx context.Context, pool *sched.Pool, opts Options, items []BatchItem) (*BatchStats, []error, error) {
	return runBatch(ctx, pool, opts, "GEMMBatch", given{}, items)
}

// GEMMPrepackedBatch is GEMMBatch with A resident: C_i ← α_i·(plan
// A)·op(B_i) + β_i·C_i, each B packed inside its wave task into the
// geometry PrepackConforming would give it (op(B_i) has pa.Cols rows; the
// free dimension may vary and splits as a direct call's would), so an
// item is bit for bit PrepackConforming + GEMMPrepacked. Admission
// charges only what the wave owns.
func GEMMPrepackedBatch(ctx context.Context, pool *sched.Pool, opts Options, pa *Prepacked, items []PrepackedBatchItem) (*BatchStats, []error, error) {
	members := make([]BatchItem, len(items))
	for i, it := range items {
		members[i] = BatchItem{TransB: it.TransB, Alpha: it.Alpha, B: it.B, Beta: it.Beta, C: it.C, Ctx: it.Ctx, TraceID: it.TraceID}
	}
	if pa == nil {
		pa = &Prepacked{released: true} // refused, as a released plan is
	}
	return runBatch(ctx, pool, opts, "GEMMPrepackedBatch", given{pa: pa}, members)
}

// runBatch is the body of both wave entry points: validate every member,
// then the one run (call.multiply).
func runBatch(ctx context.Context, pool *sched.Pool, opts Options, name string, gv given, items []BatchItem) (bs *BatchStats, errs []error, err error) {
	cl, err := enter(ctx, pool, opts, name)
	defer func() {
		if err != nil {
			bs, errs = nil, nil // a wave that failed as a whole reports no per-item errors
		}
		var stats *Stats
		if bs != nil {
			stats = &bs.Stats
		}
		cl.end(stats, err)
		if m := cl.o.Metrics; m != nil { // the batch path's own: waves, items, item failures, wave sizes
			m.Counter(metricBatchCalls).Inc()
			if bs != nil {
				m.Counter(metricBatchItems).Add(int64(bs.Items))
				m.Histogram(metricBatchSize, obs.BatchBuckets).Observe(float64(bs.Items))
				m.Counter(metricBatchErrors).Add(int64(len(errs) - bs.Completed))
			}
		}
	}()
	defer leave(cl, &bs, &err)
	if err != nil {
		return nil, nil, err
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("%w: %s of zero items", ErrDimension, name)
	}
	w := &wave{ctx: ctx, gv: gv, items: items, plans: make([]*plan, len(items)), errs: make([]error, len(items))}
	if pa := gv.pa; pa != nil {
		if pa.released {
			return nil, nil, fmt.Errorf("%w: %s with nil or released plan", ErrDimension, name)
		}
		cl.o.Curve = pa.Curve
	} else if err := multipliable(cl.o.Curve); err != nil {
		return nil, nil, err
	}
	// Validate every member before any C is touched.
	for i := range items {
		it := &items[i]
		if it.B == nil || it.C == nil || gv.pa == nil && it.A == nil {
			w.errs[i] = fmt.Errorf("%w: batch item with nil operand", ErrDimension)
			continue
		}
		m, k, n := w.shape(it)
		kb, _ := opShape(it.B, it.TransB)
		if w.errs[i] = conform(it.Alpha, it.Beta, m, k, kb, n, it.C); w.errs[i] == nil {
			w.live++
		}
	}
	bs = &BatchStats{}
	if err := cl.multiply(ctx, &bs.Stats, w); err != nil {
		return nil, nil, err
	}
	bs.Items = w.live
	for _, err := range w.errs {
		if err == nil {
			bs.Completed++
		}
	}
	return bs, w.errs, nil
}

// GEMMBatchStrided is the equal-shape form, count items at fixed strides
// in three flat buffers: item i multiplies the m×k (k×m when transA)
// column-major matrix at a[i·strideA], leading dimension lda, and so on
// for B and C, with shared alpha and beta, through GEMMBatch.
func GEMMBatchStrided(ctx context.Context, pool *sched.Pool, opts Options, transA, transB bool,
	m, k, n int, alpha float64, a []float64, lda, strideA int, b []float64, ldb, strideB int,
	beta float64, cbuf []float64, ldc, strideC int, count int) (*BatchStats, []error, error) {

	if count <= 0 {
		return nil, nil, fmt.Errorf("%w: GEMMBatchStrided of %d items", ErrDimension, count)
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
	if err := errors.Join(checkStrided("A", a, ar, ac, lda, strideA, count), checkStrided("B", b, br, bc, ldb, strideB, count),
		checkStrided("C", cbuf, m, n, ldc, strideC, count)); err != nil {
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
// least one full matrix, and the last item must fit the buffer. Each
// bound is divided, not multiplied, against what the buffer holds, so no
// extent can overflow.
func checkStrided(name string, buf []float64, rows, cols, ld, stride, count int) error {
	if rows == 0 || cols == 0 {
		return nil
	}
	if ld < rows {
		return fmt.Errorf("%w: %s leading dimension %d < rows %d", ErrDimension, name, ld, rows)
	}
	if n := len(buf); n < rows || (n-rows)/ld < cols-1 {
		return fmt.Errorf("%w: %s buffer holds %d elements, less than one %dx%d item at leading dimension %d",
			ErrDimension, name, n, rows, cols, ld)
	}
	foot := ld*(cols-1) + rows
	if stride < foot {
		return fmt.Errorf("%w: %s stride %d < item footprint %d", ErrDimension, name, stride, foot)
	}
	if (len(buf)-foot)/stride < count-1 {
		return fmt.Errorf("%w: %s buffer holds %d elements, too few for %d items at stride %d",
			ErrDimension, name, len(buf), count, stride)
	}
	return nil
}
