package recmat

import (
	"context"

	"repro/internal/core"
)

// Packed is a matrix kept resident in a recursive layout across calls —
// the usage model Frens and Wise assumed ("all matrices would be
// organized in quad-tree fashion") and that the paper's honest
// accounting contrasts with the convert-at-the-interface model. When a
// chain of multiplications reuses operands, packing once and multiplying
// many times amortizes the conversion cost that Mul/DGEMM pay per call.
//
// A Packed is a Plan: Pack makes one of a single block, and any Plan —
// split into blocks by Prepack, transposed, or the product of two — is
// an operand or a result of MulPacked where the plans conform.
type Packed = Plan

// Pack converts A to opts.Layout — Z-Morton when unset (nil options
// included); naming a canonical layout is refused, since it has no
// conversion to amortize. It is Prepack of A, untransposed, as one block
// (DisableSplit): tiled by one pick over its whole extent. An empty or
// nil matrix, or a ForceTile that cannot cover it, is ErrDimension.
func (e *Engine) Pack(A *Matrix, opts *Options) (*Packed, error) {
	p, err := core.Pack(context.Background(), e.pool, opts.coreOptions(), A)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// NewPackedResult allocates a zeroed Packed to hold the product of a and
// b: a.Rows × b.Cols, tiled a's rows by b's columns at b's depth, cut
// into blocks as the product's C blocks are. Operands that do not
// multiply — layout, depth, tiles, segments or a.Cols ≠ b.Rows — are
// ErrDimension, as GEMMPrepacked answers them.
func (e *Engine) NewPackedResult(a, b *Packed) (*Packed, error) {
	p, err := core.NewProduct(a.plan(), b.plan())
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// MulPacked computes C += A·B entirely in the packed layout: no
// conversion happens, so the Report's conversion fields are zero, and A
// and B count in PackReused as GEMMPrepacked's plans do. A and B must
// conform as GEMMPrepacked's do (pack both with the same options, or B
// with PrepackConforming against A) and C must come from
// NewPackedResult(A, B) or share its geometry; anything else is
// ErrDimension.
func (e *Engine) MulPacked(C, A, B *Packed, opts *Options) (*Report, error) {
	return e.MulPackedContext(context.Background(), C, A, B, opts)
}

// MulPackedContext is MulPacked with cooperative cancellation. On
// cancellation or error the packed C must be considered corrupt: the
// multiplication accumulates into it in place, so partial quadrant
// products may already be present.
func (e *Engine) MulPackedContext(ctx context.Context, C, A, B *Packed, opts *Options) (*Report, error) {
	return core.MulPrepacked(ctx, e.pool, opts.coreOptions(), C.plan(), A.plan(), B.plan())
}
