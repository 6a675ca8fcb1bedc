package core

import (
	"context"
	"fmt"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// The conversion passes run below an entry point, on a frame of its one
// scheduler run. The tests drive them the same way: onPool makes f the
// root of a run, with execution parameters that spread every pass the
// pool can spread (ewMin 1), so the chunked form is what small test
// matrices exercise on a pool of several workers and the streaming form
// on a pool of one.
func onPool(ctx context.Context, pool *sched.Pool, f func(e *exec, c *sched.Ctx)) error {
	e := &exec{serialCutoff: 4, ewMin: 1}
	_, _, err := pool.RunCtx(ctx, func(c *sched.Ctx) { f(e, c) })
	return err
}

// NewTiled allocates a zeroed tiled matrix covering rows × cols.
func NewTiled(curve layout.Curve, d uint, tr, tc, rows, cols int) *Tiled {
	side := 1 << d
	if tr*side < rows || tc*side < cols {
		panic(fmt.Sprintf("core: tiled %d×(%dx%d) cannot cover %dx%d", side, tr, tc, rows, cols))
	}
	return &Tiled{
		Curve: curve, D: d, TR: tr, TC: tc, Rows: rows, Cols: cols,
		Data: make([]float64, side*side*tr*tc),
	}
}

// asPlan is t as a plan of one block, whose storage it shares, for the
// plan entry points (MulPrepacked, Prepacked.Unpack) to read and write;
// nil is nil. It is never released.
func asPlan(t *Tiled) *Prepacked {
	if t == nil {
		return nil
	}
	p := newPlan(*t, []tile.Seg{{Len: t.Rows}}, []tile.Seg{{Len: t.Cols}})
	p.blocks = []Tiled{*t}
	return p
}

func (t *Tiled) Pack(ctx context.Context, pool *sched.Pool, src *matrix.Dense, trans bool, alpha float64) error {
	return onPool(ctx, pool, func(e *exec, c *sched.Ctx) { t.pack(e, c, src, trans, alpha) })
}

func (t *Tiled) UnpackAccumulate(ctx context.Context, pool *sched.Pool, dst *matrix.Dense, alpha, beta float64) error {
	return onPool(ctx, pool, func(e *exec, c *sched.Ctx) { t.unpackAccumulate(e, c, dst, alpha, beta) })
}

func (t *Tiled) PackTransposeOf(ctx context.Context, pool *sched.Pool, src *Tiled) error {
	return onPool(ctx, pool, func(e *exec, c *sched.Ctx) { t.packTransposeOf(e, c, src) })
}

// matEW2 and matEW3 are the element-wise passes on the calling
// goroutine: exec.ew2/ew3 with parameters that spread nothing.
func matEW2(dst, a Mat, f func(dst, a []float64)) { new(exec).ew2(&sched.Ctx{}, dst, a, f) }

func matEW3(dst, a, b Mat, f func(dst, a, b []float64)) { new(exec).ew3(&sched.Ctx{}, dst, a, b, f) }
