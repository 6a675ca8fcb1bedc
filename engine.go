package recmat

import (
	"context"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Engine owns a fixed pool of workers (the stand-in for the paper's
// Cilk runtime) and runs multiplications on it. Create one Engine per
// desired processor count, reuse it across calls, and Close it when
// done. An Engine is safe for sequential reuse; concurrent calls on the
// same Engine serialize correctness-wise but share workers, so prefer
// one Engine per concurrent caller.
type Engine struct {
	pool *sched.Pool
	// metrics aggregates per-call counters and histograms across the
	// engine's lifetime; see Engine.Metrics.
	metrics *obs.Registry
	// traceMu serializes EnableTracing/DisableTracing. The active
	// tracer itself is read by workers through package obs's atomic
	// pointer, never through these fields.
	traceMu sync.Mutex
	tracer  *obs.Tracer
	traceW  io.Writer
}

// NewEngine creates an engine with the given number of workers
// (0 = one per CPU).
func NewEngine(workers int) *Engine {
	return &Engine{pool: sched.NewPool(workers), metrics: obs.NewRegistry()}
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// SchedStats is a snapshot of the engine's scheduling counters: spawned
// (stealable) tasks, steals, and inline-executed frames — the analogue
// of the Cilk runtime instrumentation the paper's critique discusses.
type SchedStats = sched.PoolStats

// SchedulerStats returns the cumulative scheduling counters.
func (e *Engine) SchedulerStats() SchedStats { return e.pool.Stats() }

// ResetSchedulerStats zeroes the scheduling counters.
func (e *Engine) ResetSchedulerStats() { e.pool.ResetStats() }

// Close releases the engine's workers. It is idempotent and safe to
// call concurrently; calls on a closed engine return ErrPoolClosed
// rather than panicking.
func (e *Engine) Close() { e.pool.Close() }

// Mul computes C = A·B on the engine's workers.
func (e *Engine) Mul(C, A, B *Matrix, opts *Options) (*Report, error) {
	return e.DGEMM(false, false, 1, A, B, 0, C, opts)
}

// MulAdd computes C += A·B on the engine's workers.
func (e *Engine) MulAdd(C, A, B *Matrix, opts *Options) (*Report, error) {
	return e.DGEMM(false, false, 1, A, B, 1, C, opts)
}

// MulContext computes C = A·B with cooperative cancellation; see
// DGEMMContext for the cancellation and failure semantics.
func (e *Engine) MulContext(ctx context.Context, C, A, B *Matrix, opts *Options) (*Report, error) {
	return e.DGEMMContext(ctx, false, false, 1, A, B, 0, C, opts)
}

// DGEMM computes C ← α·op(A)·op(B) + β·C on the engine's workers. As
// in dgemm, C must not share storage with A or B: an operand may be
// read in place while the product is stored into C.
func (e *Engine) DGEMM(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix, opts *Options) (*Report, error) {
	return e.DGEMMContext(context.Background(), transA, transB, alpha, A, B, beta, C, opts)
}

// DGEMMContext is DGEMM with cooperative cancellation. Cancellation is
// checked between scheduler tasks, at every spawn point, and at each
// level of the recursion, so a cancelled context aborts the run within
// roughly one leaf-kernel latency; the returned error wraps the
// context's cause. On cancellation or failure C holds the β-scaled
// input plus any fully completed output blocks — never a partially
// written block product — and the error reports how far the computation
// got. Worker panics never escape: they surface as a *TaskError
// aggregating every sibling panic with stacks.
func (e *Engine) DGEMMContext(ctx context.Context, transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix, opts *Options) (*Report, error) {
	co := opts.coreOptions()
	co.Metrics = e.metrics
	return core.GEMMCtx(ctx, e.pool, co, transA, transB, alpha, A, B, beta, C)
}

// WorkSpan returns the analytic work and span, in flops, of one
// algorithm on a 2^depth grid of t×t tiles — the idealized counterpart
// of the Report's runtime accounting, useful for predicting available
// parallelism before running.
func WorkSpan(alg Algorithm, depth uint, t int) (work, span float64) {
	return core.WorkSpan(alg, depth, t)
}

// Parallelism returns work/span.
func Parallelism(work, span float64) float64 { return sched.Parallelism(work, span) }
