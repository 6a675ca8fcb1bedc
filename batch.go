package recmat

import (
	"context"

	"repro/internal/core"
)

// This file is the public face of the batched GEMM path: many small or
// skinny multiplications scheduled as one task wave over the engine's
// workers instead of N independent calls. A per-call driver pays root
// task injection, admission control, and arena reservation per
// multiplication; at serving shapes (far below the serial cutoff) that
// per-call overhead, not flops, bounds throughput. The wave pays those
// costs once for the whole batch. A batch is a wave of plans: each item
// is planned and run exactly as a single call of its shape would be —
// the same wide/lean split (Options.DisableSplit applies), tiles,
// kernel and block order — so its result is bit for bit the single
// call's.

// GEMMBatchItem is one member of an Engine.GEMMBatch wave. Items may
// differ in shape, scalars, and transposition; no item's C may overlap
// another item's C, or any item's A or B: the Cs are written
// concurrently, while members read their operands — a small one in
// place. A non-nil Ctx cancels that member alone — an expired member is
// dropped from the wave, not the wave from the member.
type GEMMBatchItem = core.BatchItem

// PrepackedGEMMBatchItem is one member of an Engine.GEMMPrepackedBatch
// wave: a raw right-hand side multiplied against the wave's shared
// prepacked left-hand Plan.
type PrepackedGEMMBatchItem = core.PrepackedBatchItem

// BatchReport extends Report with wave-level accounting: Items counts
// the members scheduled into the wave, Completed the members that ran
// to completion; the embedded Report fields aggregate over the wave.
type BatchReport = core.BatchStats

// GEMMBatch computes C_i ← α_i·op(A_i)·op(B_i) + β_i·C_i for every item
// in one task wave: one admission/MemBudget charge covering the wave's
// concurrently-live footprint, one scratch-arena reservation sized by
// the largest member, per-item packing fused into the wave tasks, and
// min(items, workers) runner tasks pulling items off a shared counter.
// A steady-state wave of repeated shapes performs zero allocations per
// item. No item's C may overlap another item's C, A or B.
//
// The returned slice has one error slot per item (nil = success) with
// per-item atomicity matching DGEMMContext: a failed or cancelled
// member's C holds its β-scaled input plus whole completed C blocks
// (an item that does not split is one block), never a partial product,
// and one member's panic or expiry never poisons its wave siblings. The
// call-level error is non-nil only when the wave itself could not be
// scheduled — then no item ran and every C is untouched. A wave of one
// item is exactly a DGEMMContext call: same plan, admission, residual
// probe, degradation and Report.
func (e *Engine) GEMMBatch(ctx context.Context, items []GEMMBatchItem, opts *Options) (*BatchReport, []error, error) {
	co := opts.coreOptions()
	co.Metrics = e.metrics
	return core.GEMMBatch(ctx, e.pool, co, items)
}

// GEMMPrepackedBatch computes C_i ← α_i·(plan A)·op(B_i) + β_i·C_i in
// one wave against a shared prepacked left-hand Plan: the plan's
// conversion was paid once at Prepack time, and each member's B is
// packed into the plan-conforming geometry inside its wave task — no
// per-item PrepackConforming call or plan allocation. This is the
// serving pattern's batched form: one resident model operand, a wave
// of streaming right-hand sides.
//
// Each member's op(B) must have pa.Cols() rows; the free dimension may
// vary per member, and splits as PrepackConforming would split it, so
// a member is bit for bit PrepackConforming + GEMMPrepacked. Error
// semantics match GEMMBatch.
func (e *Engine) GEMMPrepackedBatch(ctx context.Context, pa *Plan, items []PrepackedGEMMBatchItem, opts *Options) (*BatchReport, []error, error) {
	co := opts.coreOptions()
	co.Metrics = e.metrics
	return core.GEMMPrepackedBatch(ctx, e.pool, co, pa.plan(), items)
}

// GEMMBatchStrided is the equal-shape batched form: count items laid
// out at fixed strides in three flat buffers — the dominant
// strided-batch calling convention of inference workloads. Item i
// multiplies the m×k (k×m when transA) column-major matrix at
// a[i·strideA] with leading dimension lda, likewise for B and C; alpha
// and beta are shared. Views are taken without copying and the batch
// runs through GEMMBatch.
func (e *Engine) GEMMBatchStrided(ctx context.Context, opts *Options, transA, transB bool,
	m, k, n int, alpha float64, a []float64, lda, strideA int, b []float64, ldb, strideB int,
	beta float64, c []float64, ldc, strideC int, count int) (*BatchReport, []error, error) {

	co := opts.coreOptions()
	co.Metrics = e.metrics
	return core.GEMMBatchStrided(ctx, e.pool, co, transA, transB, m, k, n,
		alpha, a, lda, strideA, b, ldb, strideB, beta, c, ldc, strideC, count)
}
