// Package recmat is a parallel dense matrix multiplication library built
// on recursive array layouts, reproducing Chatterjee, Lebeck, Patnala,
// and Thottethodi, "Recursive Array Layouts and Fast Parallel Matrix
// Multiplication" (SPAA 1999).
//
// The library multiplies double-precision matrices with the standard,
// Strassen, or Winograd recursive algorithms over six array layouts: the
// canonical column-major layout of the BLAS, and five recursive layouts
// derived from space-filling curves (U-Morton, X-Morton, Z-Morton,
// Gray-Morton, Hilbert). The public entry points follow the Level 3 BLAS
// dgemm convention: operands are column-major with explicit leading
// dimensions, and the operation is C ← α·op(A)·op(B) + β·C. Conversion
// between the caller's column-major data and the internal recursive
// layout happens inside the call and is reported separately in the
// returned Report, so the cost of adopting a recursive layout is never
// hidden.
//
// # Quick start
//
//	eng := recmat.NewEngine(0) // one worker per CPU
//	defer eng.Close()
//	A := recmat.Random(1000, 1000, rand.New(rand.NewSource(1)))
//	B := recmat.Random(1000, 1000, rand.New(rand.NewSource(2)))
//	C := recmat.NewMatrix(1000, 1000)
//	report, err := eng.Mul(C, A, B, &recmat.Options{
//		Layout:    recmat.ZMorton,
//		Algorithm: recmat.Strassen,
//	})
//
// See the examples directory for complete programs and EXPERIMENTS.md
// for the reproduction of every figure in the paper.
package recmat

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// Matrix is a dense, column-major matrix of float64 values with an
// explicit leading dimension (Stride), matching the BLAS storage
// convention. Element (i, j) lives at Data[j*Stride+i].
type Matrix = matrix.Dense

// NewMatrix returns a zeroed m×n matrix with contiguous storage.
func NewMatrix(m, n int) *Matrix { return matrix.New(m, n) }

// FromSlice wraps existing column-major data (leading dimension ld)
// without copying.
func FromSlice(data []float64, m, n, ld int) *Matrix { return matrix.FromSlice(data, m, n, ld) }

// Random returns an m×n matrix with entries uniform in [-1, 1).
func Random(m, n int, rng *rand.Rand) *Matrix { return matrix.Random(m, n, rng) }

// RandomSeeded returns an m×n matrix deterministically generated from
// seed by a splitmix64 stream — constant-time seeding, so it is the
// cheap way to materialize operands named by a seed (the serving
// layer's request contract).
func RandomSeeded(m, n int, seed int64) *Matrix { return matrix.RandomSeeded(m, n, seed) }

// SeedFill fills dst with RandomSeeded's value stream for seed — for
// callers materializing seeded operands into recycled buffers.
func SeedFill(dst []float64, seed int64) { matrix.SeedFill(dst, seed) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix { return matrix.Identity(n) }

// Equal reports element-wise equality within an absolute tolerance.
func Equal(a, b *Matrix, tol float64) bool { return matrix.Equal(a, b, tol) }

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 { return matrix.MaxAbsDiff(a, b) }

// RefGEMM is the naive reference implementation of the dgemm operation,
// exported as a correctness oracle for users of the library.
func RefGEMM(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix) {
	matrix.RefGEMM(transA, transB, alpha, A, B, beta, C)
}

// Layout selects an array layout function (Section 3 of the paper).
type Layout = layout.Curve

// The supported layouts. ColMajor is the canonical baseline; the five
// recursive layouts are ordered by increasing addressing complexity.
const (
	ColMajor   = layout.ColMajor
	RowMajor   = layout.RowMajor // visualization only; Mul rejects it
	UMorton    = layout.UMorton
	XMorton    = layout.XMorton
	ZMorton    = layout.ZMorton
	GrayMorton = layout.GrayMorton
	Hilbert    = layout.Hilbert
)

// Layouts lists the layouts accepted by Mul and DGEMM, canonical first.
var Layouts = []Layout{ColMajor, UMorton, XMorton, ZMorton, GrayMorton, Hilbert}

// ParseLayout resolves a layout name ("ColMajor", "Z-Morton", "z", …).
func ParseLayout(s string) (Layout, error) { return layout.ParseCurve(s) }

// Algorithm selects a multiplication algorithm (Section 2 of the paper).
type Algorithm = core.Alg

// The supported algorithms. Standard is the O(n³) recursion in
// accumulate form; Standard8 is the eight-spawn variant of Figure 1(a);
// Strassen and Winograd are the O(n^lg7) fast algorithms of Figure 1(b)
// and 1(c). All but Standard are run from their ⟨2,2,2⟩ coefficient
// tables by the engine that runs the rectangular family below.
const (
	Standard  = core.Standard
	Standard8 = core.Standard8
	Strassen  = core.Strassen
	Winograd  = core.Winograd
	// StrassenLowMem is the space-conserving sequential Strassen variant
	// of Section 5 (pre/post-additions interspersed with the recursive
	// calls): Strassen's table run depth-first, so it returns Strassen's
	// bits. It exposes no parallelism and exists for the ablation that
	// reproduces the paper's observation that it behaves like the
	// standard algorithm with respect to layouts, and as the MemBudget
	// ladder's rung below a fast algorithm.
	StrassenLowMem = core.StrassenLowMem
	// Auto resolves the algorithm from the tile grid the call will run
	// on: Standard unless the grid is large enough for at least one fast
	// level to repay its passes by the crossover rule (see
	// Options.FastCutoff), Winograd otherwise: the same answer in every
	// process on a host. The resolved choice is
	// recorded in Report.Alg, with Report.FastCutoff and
	// Report.FastLevels.
	Auto = core.AlgAuto
)

// The rectangular bilinear ⟨m,k,n⟩ algorithms: each is a sparse
// coefficient table (Benson–Ballard style) run by the same recursive
// engine as Strassen and Winograd. They divide the three dimensions at
// different rates and win on correspondingly rectangular problems.
var (
	TableFast323     = core.TableFast323     // ⟨3,2,3⟩ rank 17
	TableFast424     = core.TableFast424     // ⟨4,2,4⟩ rank 28
	TableLaderman333 = core.TableLaderman333 // ⟨3,3,3⟩ rank 23, Laderman
)

// Algorithms lists all supported algorithms, enumerated from the core
// registry so the table-driven algorithms appear automatically. Auto is
// excluded: it is a selection policy, not an algorithm.
var Algorithms = append([]Algorithm(nil), core.Algs...)

// AlgorithmNames returns the parseable name of every supported
// algorithm, plus "auto", in registry order — the canonical source for
// command-line help and error listings.
func AlgorithmNames() []string { return core.AlgNames() }

// ParseAlgorithm resolves an algorithm name (see AlgorithmNames).
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlg(s) }

// ResolveAlgorithm reports the algorithm a multiplication of the given
// m×k×n shape with these options will run: Options.Algorithm itself
// when explicit, or the per-shape Auto choice. Callers that cache or
// route work by algorithm (the serving daemon's plan cache) use this to
// key on the resolved choice rather than the "auto" sentinel.
func ResolveAlgorithm(opts *Options, m, k, n int) Algorithm {
	var o core.Options
	if opts != nil {
		o = opts.coreOptions()
	}
	return core.ResolveAlg(o, m, k, n)
}

// TileConfig controls tile-size selection (Section 4): tiles are chosen
// from [TMin, TMax] so that the padded matrix is a 2^d grid of tiles.
type TileConfig = tile.Config

// Kernel is a leaf multiplication kernel; see Kernels for the built-ins.
type Kernel = leaf.Kernel

// Kernels returns the names of the built-in leaf kernels in sorted
// order: "axpy", "blocked" (register-blocked 4×4), "naive", "packed8x4"
// (a packed-panel register-blocked kernel with a pack-free fast path on
// contiguous recursive-layout tiles), and "unrolled4" (the paper's
// kernel), plus whatever hardware kernels the
// host CPU unlocked — "avx2" (AVX2/FMA 8×4) and "avx512" (AVX-512F
// 16×4, bit-identical to "avx2") on amd64, "neon" (NEON 4×4) on arm64;
// see SIMDKernels. See DESIGN.md for the hierarchy.
func Kernels() []string { return leaf.Names() }

// KernelByName resolves a built-in kernel.
func KernelByName(name string) (Kernel, error) { return leaf.Get(name) }

// SIMDKernels returns the names of the assembly leaf kernels registered
// on this host — the subset of Kernels that dispatches to hardware
// micro-kernels (AVX2/FMA and AVX-512F on amd64, NEON on arm64). Empty when the CPU
// lacks the features, under `-tags noasm`, on other GOARCHes, or when
// the RECMAT_NOSIMD environment variable disabled them at startup.
func SIMDKernels() []string { return leaf.SIMDNames() }

// CPUFeatures reports the SIMD capabilities detected on the host CPU in
// sorted order (e.g. "avx2", "fma", and "avx512f" where the OS saves
// ZMM state, on a modern amd64; "asimd" on arm64). It describes the hardware and is unaffected by RECMAT_NOSIMD;
// use SIMDKernels to see what is actually runnable.
func CPUFeatures() []string { return leaf.Features() }

// Options configures a multiplication. The zero value multiplies with
// the standard algorithm on the column-major layout using default tiles.
type Options struct {
	// Layout is the array layout; Mul converts operands to it
	// internally and converts the result back.
	Layout Layout
	// Algorithm is the recursion to run.
	Algorithm Algorithm
	// Workers overrides the engine's worker count for pool-less calls
	// (Mul/DGEMM package functions); 0 means one per CPU. Engine
	// methods ignore it.
	Workers int
	// Tile overrides tile-size selection; zero value uses the default
	// [16, 64] range preferring 32.
	Tile TileConfig
	// ForceTile forces an exact square tile size, bypassing selection
	// (ForceTile=1 reproduces element-level quadtree layouts).
	ForceTile int
	// KernelName selects a built-in leaf kernel by name (see Kernels).
	// Unset, the engine runs the default for the host and the call's tile
	// shape: the widest assembly family the CPU probe registered
	// (SIMDKernels; "packed8x4" without one) on tiles of at least 8×4,
	// "blocked" on smaller ones — a fixed rule, so the same call runs the
	// same kernel in every process on a host; Report.Kernel names it.
	// Note this departs from the paper, whose experiments fix the
	// four-way-unrolled kernel; set KernelName to "unrolled4" to
	// reproduce the paper's setup exactly (cmd/experiments does).
	KernelName string
	// SerialCutoff is the quadrant size in tiles at or below which the
	// recursion stops spawning parallel tasks (0 = default 4).
	SerialCutoff int
	// FastCutoff is the grid size in tiles at or below which the fast
	// algorithms switch to the standard recursion. 0 = the crossover
	// rule's: the smallest grid at which one fast level repays its
	// passes, a fixed function of the kernel family, the call's tiles
	// and the algorithm — nothing is timed. 1 = the paper's setting: recurse the
	// fast algorithm all the way down. Standard and Standard8 are not
	// fast and ignore it. Report.FastCutoff and Report.FastLevels say
	// what a call ran with.
	FastCutoff int
	// DisableSplit turns off wide/lean submatrix decomposition.
	DisableSplit bool
	// PartnerDim, when positive, tells Engine.Prepack the expected free
	// dimension of the partners the plan will multiply against (for a
	// serving workload, the width b of the streamed right-hand sides).
	// The plan then splits into the same squat blocks a direct GEMM of
	// that shape would use, so conforming partners pad their skinny
	// dimension minimally. Ignored outside Prepack.
	PartnerDim int
	// MemBudget, when positive, is an upper bound in bytes on the
	// workspace a multiplication may allocate (packed operands plus
	// algorithm temporaries plus kernel scratch). Before allocating
	// anything the engine estimates the footprint of the requested
	// configuration and, if it exceeds the budget, first walks a
	// wide/lean call's packed segments in groups that fit, then degrades
	// along a fixed ladder — fast parallel algorithm → low-memory serial
	// Strassen → standard parallel → standard serial — taking the first
	// rung that fits. Each degradation step is recorded in
	// Report.Degraded; if no rung fits the call fails with ErrMemBudget
	// before touching C. Zero means unlimited.
	MemBudget int64
	// MaxResidualGrowth, when positive, bounds the numerical error the
	// fast algorithms (Strassen, Winograd) are allowed to introduce,
	// measured as residual growth relative to the standard algorithm's
	// eps·k·|A|·|B| bound on a small probe block sampled from the
	// operands. If the probe exceeds the bound the engine degrades to
	// the standard algorithm and records the decision in
	// Report.Degraded. The standard algorithm measures ≈1 on this
	// scale; useful bounds are typically 8–100. Zero disables the
	// check.
	MaxResidualGrowth float64
	// TraceID, when non-zero, attributes this call to a served request
	// in the active trace: the call's lane carries the id, and the
	// Chrome-trace exporter links it back to the matching request lane.
	// Serving layers set it per request; library callers leave it zero.
	TraceID int64
}

func (o *Options) coreOptions() core.Options {
	if o == nil {
		return core.Options{}
	}
	return core.Options{
		Curve:             o.Layout,
		Alg:               o.Algorithm,
		KernelName:        o.KernelName,
		Tile:              o.Tile,
		ForceTile:         o.ForceTile,
		SerialCutoff:      o.SerialCutoff,
		FastCutoff:        o.FastCutoff,
		DisableSplit:      o.DisableSplit,
		PartnerDim:        o.PartnerDim,
		MemBudget:         o.MemBudget,
		MaxResidualGrowth: o.MaxResidualGrowth,
		TraceID:           o.TraceID,
	}
}

// Report describes what a multiplication did: separate conversion and
// compute wall times (the honest accounting of Section 4), accounted
// work/span of the task DAG (Work/Span estimates available parallelism,
// as Cilk's critical-path tracking did), the tiling chosen, and — when
// admission control intervened — the algorithm actually run and the
// degradation decisions that led to it.
type Report = core.Stats

// Error taxonomy. Every failure a multiplication can produce is one of
// these (or a context error), reachable through errors.Is/errors.As:
//
//   - ErrPoolClosed: the engine was closed before or during the call.
//   - ErrNonFinite: alpha or beta is NaN or ±Inf.
//   - ErrDimension: operand shapes do not conform, or the padded
//     problem would overflow addressing limits.
//   - ErrMemBudget: no degradation rung fits Options.MemBudget.
//   - *TaskError: one or more worker tasks panicked; it aggregates
//     every sibling panic as a *PanicError with the stack captured at
//     the panicking worker.
//   - context.Canceled / context.DeadlineExceeded: wrapped in the
//     returned error when the context ends the run.
var (
	ErrPoolClosed = sched.ErrPoolClosed
	ErrNonFinite  = core.ErrNonFinite
	ErrDimension  = core.ErrDimension
	ErrMemBudget  = core.ErrMemBudget
)

// TaskError aggregates the panics of a failed run; Unwrap returns the
// individual *PanicError values (errors.Join style).
type TaskError = sched.TaskError

// PanicError is one recovered worker panic with the stack captured at
// the panic site; Unwrap exposes the panic value when it is an error.
type PanicError = sched.PanicError

// Mul computes C = A·B with the given options (nil options = defaults).
// It is shorthand for DGEMM(false, false, 1, A, B, 0, C, opts).
func Mul(C, A, B *Matrix, opts *Options) (*Report, error) {
	return DGEMM(false, false, 1, A, B, 0, C, opts)
}

// DGEMM computes C ← α·op(A)·op(B) + β·C following the Level 3 BLAS
// convention of the paper's Section 2.1, using a transient worker pool.
// For repeated calls, create an Engine and use its methods to amortize
// pool start-up.
func DGEMM(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix, opts *Options) (*Report, error) {
	return GEMMContext(context.Background(), transA, transB, alpha, A, B, beta, C, opts)
}

// GEMMContext is DGEMM with cooperative cancellation: when ctx is
// cancelled the run aborts within roughly one leaf-kernel latency and
// the call returns an error wrapping ctx's cause. On cancellation C
// holds the β-scaled input plus any fully completed output blocks —
// never a partially written block product — and the returned error says
// how far the computation got.
func GEMMContext(ctx context.Context, transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix, opts *Options) (*Report, error) {
	e := NewEngine(optWorkers(opts))
	defer e.Close()
	return e.DGEMMContext(ctx, transA, transB, alpha, A, B, beta, C, opts)
}

func optWorkers(opts *Options) int {
	if opts == nil {
		return 0
	}
	return opts.Workers
}
