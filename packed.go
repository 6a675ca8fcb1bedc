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
// A Packed is created by an Engine for a specific layout and tiling and
// may only be combined with Packed matrices of the same provenance.
type Packed struct {
	t    *core.Tiled
	opts core.Options
}

// Pack converts A to opts.Layout, which must be one of the recursive
// layouts; tile selection follows the same rules as Prepack. An empty or
// nil matrix, or a ForceTile that cannot cover it, is ErrDimension.
func (e *Engine) Pack(A *Matrix, opts *Options) (*Packed, error) {
	o := opts.coreOptions()
	t, err := core.PackTiled(context.Background(), e.pool, o, A)
	if err != nil {
		return nil, err
	}
	return &Packed{t: t, opts: o}, nil
}

// tiled is the core operand behind p; a nil Packed has none, and core
// answers that with ErrDimension where a field access would fault.
func (p *Packed) tiled() *core.Tiled {
	if p == nil {
		return nil
	}
	return p.t
}

// Rows and Cols return the logical shape.
func (p *Packed) Rows() int { return p.t.Rows }
func (p *Packed) Cols() int { return p.t.Cols }

// Layout returns the packed layout.
func (p *Packed) Layout() Layout { return p.t.Curve }

// Unpack converts back to a column-major matrix. It fails (rather than
// panicking) when the engine has been closed, before anything is
// allocated.
func (p *Packed) Unpack(e *Engine) (*Matrix, error) {
	return p.t.Unpack(context.Background(), e.pool)
}

// At reads one element through the layout function (slow; for spot
// checks, not inner loops).
func (p *Packed) At(i, j int) float64 { return p.t.At(i, j) }

// NewPackedResult allocates a zeroed Packed conformable as the product
// of a and b (a.Rows × b.Cols, tiles a.TR × b.TC); operands that do not
// multiply — layout, depth, tiles or a.Cols ≠ b.Rows — are ErrDimension.
func (e *Engine) NewPackedResult(a, b *Packed) (*Packed, error) {
	if err := core.ConformTiled(a.tiled(), b.tiled()); err != nil {
		return nil, err
	}
	t := core.NewTiled(a.t.Curve, a.t.D, a.t.TR, b.t.TC, a.t.Rows, b.t.Cols)
	return &Packed{t: t, opts: a.opts}, nil
}

// MulPacked computes C += A·B entirely in the packed layout: no
// conversion happens, so the Report's conversion fields are zero. The
// operands must have been packed with the same layout, depth, and
// conforming tile shapes (pack both inputs with the same ForceTile, or
// pack square same-size matrices, to guarantee this), and their logical
// shapes must multiply; anything else is ErrDimension.
func (e *Engine) MulPacked(C, A, B *Packed, opts *Options) (*Report, error) {
	return e.MulPackedContext(context.Background(), C, A, B, opts)
}

// MulPackedContext is MulPacked with cooperative cancellation. On
// cancellation or error the packed C must be considered corrupt: the
// multiplication accumulates into it in place, so partial quadrant
// products may already be present.
func (e *Engine) MulPackedContext(ctx context.Context, C, A, B *Packed, opts *Options) (*Report, error) {
	return core.MulTiledCtx(ctx, e.pool, opts.coreOptions(), C.tiled(), A.tiled(), B.tiled())
}
