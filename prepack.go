package recmat

import (
	"context"

	"repro/internal/core"
)

// Plan is a prepacked operand: a matrix converted to a recursive layout
// once, then multiplied many times without paying the conversion again.
// This is the amortization Section 4's accounting motivates — for a
// serving workload (one large fixed operand, a stream of small
// right-hand sides) the fixed operand's conversion would otherwise
// dominate every call.
//
// A Plan is created by Engine.Prepack (or PrepackConforming, Transposed,
// and as a Packed by Pack and NewPackedResult), stays valid across any
// number of Engine.GEMMPrepacked and MulPacked calls (and across engines
// — it holds no pool reference), and returns its buffers to the internal
// recycling pool when Released. It is immutable and safe for concurrent
// reads, but for the C a MulPacked accumulates into.
type Plan struct {
	p *core.Prepacked
	// trans records whether the source was packed transposed, for
	// callers inspecting the plan.
	trans bool
}

// plan is the core plan behind p; a nil Plan has none, and core answers
// that with an error where a method call would fault.
func (p *Plan) plan() *core.Prepacked {
	if p == nil {
		return nil
	}
	return p.p
}

// Rows and Cols return the logical extents of the packed operand —
// op(A), with any transposition requested at Prepack time applied.
func (p *Plan) Rows() int { return p.p.Rows }
func (p *Plan) Cols() int { return p.p.Cols }

// Trans reports whether the plan packed the transpose of its source.
func (p *Plan) Trans() bool { return p.trans }

// Layout returns the recursive layout the plan is packed in.
func (p *Plan) Layout() Layout { return p.p.Curve }

// Bytes returns the packed storage the plan holds.
func (p *Plan) Bytes() int64 { return p.p.Bytes() }

// Release returns the plan's buffers to the recycling pool. The plan
// must not be used afterwards. Release must not race with
// multiplications that use the plan.
func (p *Plan) Release() { p.p.Release() }

// Unpack converts the plan back to a column-major op(A). It fails
// (rather than panicking) when the engine has been closed, before
// anything is allocated.
func (p *Plan) Unpack(e *Engine) (*Matrix, error) {
	return p.p.Unpack(context.Background(), e.pool)
}

// At reads element (i, j) of op(A) through the layout function (slow;
// for spot checks, not inner loops).
func (p *Plan) At(i, j int) float64 { return p.p.At(i, j) }

// Prepack converts op(A) into a reusable Plan in the layout selected by
// opts (one of the five recursive layouts, Z-Morton when unset; ColMajor
// has no conversion to amortize and is rejected). Only the layout, tile,
// and splitting options matter here — algorithm and kernel are chosen
// per GEMMPrepacked call.
//
// Two independently prepacked plans can multiply when their geometries
// conform on the shared dimension; GEMMPrepacked validates this and
// explains any mismatch. For a streaming right-hand operand, use
// PrepackConforming, which conforms by construction.
func (e *Engine) Prepack(A *Matrix, trans bool, opts *Options) (*Plan, error) {
	p, err := core.Prepack(context.Background(), e.pool, opts.coreOptions(), A, trans)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p, trans: trans}, nil
}

// PrepackConforming packs op(B) to conform with like as the left-hand
// plan: the shared inner dimension adopts like's depth, tiling, and
// segmentation, so GEMMPrepacked(ctx, α, like, result, β, C) always
// validates. This is the serving pattern's entry point — Prepack the
// fixed operand once, PrepackConforming each streaming right-hand side
// against it. The layout is taken from like; opts may still adjust
// splitting of the free dimension (nil = defaults).
func (e *Engine) PrepackConforming(B *Matrix, trans bool, opts *Options, like *Plan) (*Plan, error) {
	p, err := core.PrepackConforming(context.Background(), e.pool, opts.coreOptions(), B, trans, like.plan())
	if err != nil {
		return nil, err
	}
	return &Plan{p: p, trans: trans}, nil
}

// Transposed derives the Plan of the packed operand's transpose without
// re-reading the source matrix: each block is transposed inside the
// recursive layout. One Prepack plus one Transposed serves both operand
// slots of a symmetric product (C ← α·A·Aᵀ + β·C) from a single
// conversion pass.
func (p *Plan) Transposed(e *Engine) (*Plan, error) {
	q, err := p.p.Transposed(context.Background(), e.pool)
	if err != nil {
		return nil, err
	}
	return &Plan{p: q, trans: !p.trans}, nil
}

// GEMMPrepacked computes C ← α·A·B + β·C where both operands are
// prepacked Plans (transposition was folded at Prepack time, so there
// are no trans flags). The per-call conversion is reduced to unpacking
// the C tile (zero-filled first only under a fast level): a steady-state call reports
// Report.ConvertIn ≈ 0 and a ConvertBytes covering only the C epilogue
// (none for a β = 0, α = 1 product of one block of at most 8 tiles a
// side, which goes into C in place), with PackReused counting the
// operand packs the plans served.
//
// opts selects algorithm, kernel, and cutoffs; layout and tile options
// are ignored in favor of the plans' packed geometry, and
// MaxResidualGrowth does not apply. The failure contract matches
// DGEMMContext: on error or cancellation C holds the β-scaled input
// plus fully completed output blocks only.
func (e *Engine) GEMMPrepacked(ctx context.Context, alpha float64, pa, pb *Plan, beta float64, C *Matrix) (*Report, error) {
	return e.GEMMPrepackedOpts(ctx, nil, alpha, pa, pb, beta, C)
}

// GEMMPrepackedOpts is GEMMPrepacked with explicit Options for
// algorithm, kernel, and cutoff selection (nil = defaults).
func (e *Engine) GEMMPrepackedOpts(ctx context.Context, opts *Options, alpha float64, pa, pb *Plan, beta float64, C *Matrix) (*Report, error) {
	co := opts.coreOptions()
	co.Metrics = e.metrics
	return core.GEMMPrepacked(ctx, e.pool, co, alpha, pa.plan(), pb.plan(), beta, C)
}
