package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
)

// tileCoordCache memoizes the inverse curve walk SInverse(s, d) for
// every tile of a (curve, depth) grid: Pack and Unpack previously
// re-evaluated the bit-interleaving per tile inside their chunk loops,
// three times per GEMM call (A, B, C operand packs) plus once per
// unpack. The table is computed once per (curve, depth) for the life of
// the process and shared lock-free; each entry packs (ti, tj) as
// ti<<16 | tj (tile coordinates fit 16 bits for any depth ≤ 16).
// Depths beyond maxCoordDepth (a 1024×1024 tile grid, beyond any
// realistic tiling choice) fall back to the direct per-tile walk.
const maxCoordDepth = 10

var tileCoordCache [8][maxCoordDepth + 1]atomic.Pointer[[]uint32]

// tileCoords returns the memoized coordinate table for a (curve, depth)
// grid, or nil when the grid is out of cache range.
func tileCoords(cv layout.Curve, d uint) []uint32 {
	if int(cv) >= len(tileCoordCache) || d > maxCoordDepth {
		return nil
	}
	slot := &tileCoordCache[cv][d]
	if p := slot.Load(); p != nil {
		return *p
	}
	side := 1 << d
	t := make([]uint32, side*side)
	for s := range t {
		ti, tj := cv.SInverse(uint64(s), d)
		t[s] = ti<<16 | tj
	}
	if slot.CompareAndSwap(nil, &t) {
		return t
	}
	return *slot.Load()
}

// Tiled is a matrix stored in a recursive layout: a 2^D × 2^D grid of
// TR × TC column-major tiles, tiles ordered along Curve (equation (3) of
// the paper). Rows and Cols are the logical (pre-padding) extents; the
// remaining elements are explicit zero padding on which the arithmetic
// runs blindly, as Section 4 prescribes.
type Tiled struct {
	Curve      layout.Curve
	D          uint
	TR, TC     int
	Rows, Cols int
	Data       []float64
	// gr and gc, when non-zero, mark canonical storage (the L_C baseline
	// of Section 5): Data is one padded column-major panel of gr × gc
	// tiles with leading dimension gr·TR — a 2^D square grid for the
	// quadrant algorithms, mixed-radix rectangular for the table-driven
	// ⟨m,k,n⟩ family. The driver packs and unpacks it through the same
	// tile walk as the curves, so one block loop serves both storages.
	gr, gc int
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

// grid returns the tile-grid extents.
func (t *Tiled) grid() (gr, gc int) {
	if t.gr != 0 {
		return t.gr, t.gc
	}
	return 1 << t.D, 1 << t.D
}

// tiles and elems return the tile count and the padded element count.
func (t *Tiled) tiles() int { gr, gc := t.grid(); return gr * gc }
func (t *Tiled) elems() int { return t.tiles() * t.TR * t.TC }

// PaddedRows and PaddedCols return the padded extents.
func (t *Tiled) PaddedRows() int { gr, _ := t.grid(); return t.TR * gr }
func (t *Tiled) PaddedCols() int { _, gc := t.grid(); return t.TC * gc }

// Mat returns the whole-matrix quadrant descriptor in the reference
// orientation.
func (t *Tiled) Mat() Mat {
	m := Mat{data: t.Data, tiles: 1 << t.D, tr: t.TR, tc: t.TC, curve: t.Curve}
	if t.gr != 0 {
		m.tiles, m.ld = t.gr, t.gr*t.TR
		if t.gc != t.gr {
			m.tilesc = t.gc
		}
	}
	return m
}

// coords returns the memoized curve walk of the grid (nil on canonical
// storage and out-of-cache depths, where tileAt computes directly).
func (t *Tiled) coords() []uint32 {
	if t.gr != 0 {
		return nil
	}
	return tileCoords(t.Curve, t.D)
}

// tileAt locates tile s of the storage walk: the logical offsets
// (i0, j0) of its first element, and the base and leading dimension of
// its column-major storage inside Data.
func (t *Tiled) tileAt(s int, coords []uint32) (i0, j0, base, ld int) {
	if t.gr != 0 {
		ti, tj := s%t.gr, s/t.gr
		ld = t.gr * t.TR
		return ti * t.TR, tj * t.TC, tj*t.TC*ld + ti*t.TR, ld
	}
	var ti, tj uint32
	if coords != nil {
		pc := coords[s]
		ti, tj = pc>>16, pc&0xffff
	} else {
		ti, tj = t.Curve.SInverse(uint64(s), t.D)
	}
	return int(ti) * t.TR, int(tj) * t.TC, s * t.TR * t.TC, t.TR
}

// At returns logical element (i, j), evaluating the layout function of
// equation (3): tile coordinates through the curve's S function, tile
// offset through the canonical column-major layout. It is intended for
// tests and spot checks, not hot paths — the recursion never calls it.
func (t *Tiled) At(i, j int) float64 {
	s := t.Curve.S(uint32(i/t.TR), uint32(j/t.TC), t.D)
	return t.Data[int(s)*t.TR*t.TC+(j%t.TC)*t.TR+(i%t.TR)]
}

// chunked runs f over [0, n) in ranged chunks, each a child task of c:
// four per worker and never fewer than 32, so that cancellation — which
// the scheduler checks between tasks — stays chunk-grained on any pool.
// It is the one way a data-parallel pass spreads over the pool. Its
// caller has asked exec.spawns first, and runs a pass too small to split
// as f(0, n) before it builds a closure: a wave task's passes allocate
// nothing. kind, when non-zero, labels a chunk's span on its worker's
// trace track.
func chunked(c *sched.Ctx, kind obs.Kind, n int, f func(lo, hi int)) {
	chunks := min(max(32, 4*c.Workers()), n)
	fns := make([]func(*sched.Ctx), chunks)
	for i := range fns {
		lo, hi := n*i/chunks, n*(i+1)/chunks
		fns[i] = func(c *sched.Ctx) {
			tr := obs.Cur()
			if tr == nil || kind == 0 {
				f(lo, hi)
				return
			}
			t0 := time.Now()
			f(lo, hi)
			tr.Span(c.WorkerID(), kind, t0, time.Since(t0), int64(hi-lo))
		}
	}
	c.Parallel(fns...)
}

// pack converts op(src), scaled by alpha, from column-major into the
// tiled layout, inserting explicit zero padding. The remapping works
// tile-by-tile and spreads over the pool when the pass is large enough
// (exec.spawns), as Section 4 describes ("the remapping of the
// individual tiles is again amenable to parallel execution"). Any
// required transposition is folded into this step, so the
// multiplication core needs no transposed variants.
func (t *Tiled) pack(e *exec, c *sched.Ctx, src *matrix.Dense, trans bool, alpha float64) {
	if srows, scols := opShape(src, trans); srows != t.Rows || scols != t.Cols {
		panic(fmt.Sprintf("core: pack %dx%d into tiled %dx%d", srows, scols, t.Rows, t.Cols))
	}
	coords := t.coords()
	if !e.spawns(c, t.elems()) {
		t.packTiles(src, trans, alpha, coords, 0, t.tiles())
		return
	}
	s := *src // the chunks' copy: a caller's view stays on its stack
	chunked(c, obs.KindPack, t.tiles(), func(lo, hi int) { t.packTiles(&s, trans, alpha, coords, lo, hi) })
}

// packTiles packs tiles [lo, hi) of the storage walk: pack's ranged body.
func (t *Tiled) packTiles(src *matrix.Dense, trans bool, alpha float64, coords []uint32, lo, hi int) {
	faultinject.Point("core.pack")
	for s := lo; s < hi; s++ {
		i0, j0, base, ld := t.tileAt(s, coords)
		for jj := 0; jj < t.TC; jj++ {
			dcol := t.Data[base+jj*ld : base+jj*ld+t.TR]
			gj := j0 + jj
			if gj >= t.Cols {
				vZero(dcol)
				continue
			}
			vr := t.Rows - i0
			if vr > t.TR {
				vr = t.TR
			}
			if vr <= 0 {
				vZero(dcol)
				continue
			}
			switch {
			case trans:
				// Logical (i, gj) = src(gj, i): strided row read.
				for ii := 0; ii < vr; ii++ {
					dcol[ii] = alpha * src.Data[(i0+ii)*src.Stride+gj]
				}
			case alpha == 1:
				// The fused C epilogue packs operands unscaled, so
				// the common case is a straight copy.
				copy(dcol[:vr], src.Data[gj*src.Stride+i0:gj*src.Stride+i0+vr])
			default:
				scol := src.Data[gj*src.Stride+i0:]
				for ii := 0; ii < vr; ii++ {
					dcol[ii] = alpha * scol[ii]
				}
			}
			for ii := vr; ii < t.TR; ii++ {
				dcol[ii] = 0
			}
		}
	}
}

// Unpack copies the logical region out to a fresh column-major matrix,
// discarding padding: the fused epilogue's walk storing 0 + 1·t (a −0
// lands as +0). An entry point; pool may be nil.
func (t *Tiled) Unpack(ctx context.Context, pool *sched.Pool) (dst *matrix.Dense, err error) {
	cl, err := enter(ctx, pool, Options{}, "Unpack", 0)
	defer leave(cl, &dst, &err)
	if err != nil {
		return nil, err
	}
	dst = matrix.New(t.Rows, t.Cols)
	if err := cl.pass(ctx, func(e *exec, c *sched.Ctx) { t.unpackAccumulate(e, c, dst, 1, 0) }); err != nil {
		return nil, err
	}
	return dst, nil
}

// unpackAccumulate folds the C epilogue of a block multiplication into
// the conversion walk: dst += alpha · (logical region of t), discarding
// padding. With the product accumulated into a zero-filled tiled buffer,
// this replaces the old pack-C / compute / unpack-C round-trip — C is
// read and written exactly once, alpha is applied for free during the
// stream, and dst stays untouched (β-scaled) until the block's compute
// has fully succeeded. beta is what dst was scaled by: after β = 0 it
// holds nothing the result may depend on (BLAS reads no C then), and the
// walk stores 0 + alpha·t without reading it. Spread over the pool like
// pack, but under a shield: once the epilogue starts, a cancellation
// must not leave the block half-applied.
func (t *Tiled) unpackAccumulate(e *exec, c *sched.Ctx, dst *matrix.Dense, alpha, beta float64) {
	if dst.Rows != t.Rows || dst.Cols != t.Cols {
		panic(fmt.Sprintf("core: unpack tiled %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols))
	}
	coords := t.coords()
	if !e.spawns(c, t.elems()) {
		t.unpackAccumulateTiles(dst, alpha, beta, coords, 0, t.tiles())
		return
	}
	d := *dst // as pack's s
	c.Shield(func(c *sched.Ctx) {
		chunked(c, obs.KindUnpack, t.tiles(), func(lo, hi int) { t.unpackAccumulateTiles(&d, alpha, beta, coords, lo, hi) })
	})
}

// unpackAccumulateTiles accumulates tiles [lo, hi) of the curve walk
// into dst: unpackAccumulate's ranged body.
func (t *Tiled) unpackAccumulateTiles(dst *matrix.Dense, alpha, beta float64, coords []uint32, lo, hi int) {
	for s := lo; s < hi; s++ {
		i0, j0, base, ld := t.tileAt(s, coords)
		if i0 >= t.Rows || j0 >= t.Cols {
			continue
		}
		vr := t.Rows - i0
		if vr > t.TR {
			vr = t.TR
		}
		vc := t.Cols - j0
		if vc > t.TC {
			vc = t.TC
		}
		for jj := 0; jj < vc; jj++ {
			dcol := dst.Data[(j0+jj)*dst.Stride+i0 : (j0+jj)*dst.Stride+i0+vr]
			scol := t.Data[base+jj*ld : base+jj*ld+vr]
			switch {
			case beta == 0:
				// The sum the accumulate form makes with a zero, so a
				// product of -0 still lands as +0.
				for ii := range dcol {
					dcol[ii] = 0 + alpha*scol[ii]
				}
			case alpha == 1:
				for ii := range dcol {
					dcol[ii] += scol[ii]
				}
			default:
				for ii := range dcol {
					dcol[ii] += alpha * scol[ii]
				}
			}
		}
	}
}

// packTransposeOf fills t with the transpose of an already-packed tiled
// matrix, entirely within the recursive layout: destination tile (i, j)
// is the element-wise transpose of source tile (j, i), located through
// the curve's forward S function. This is how one packed operand serves
// both slots of a symmetric product (SYRK's α·A·Aᵀ): the second pack
// never re-reads the strided column-major source. Both matrices must
// share curve, depth, and mirrored tile shapes (t is TC×TR tiles where
// src is TR×TC).
func (t *Tiled) packTransposeOf(e *exec, c *sched.Ctx, src *Tiled) {
	switch {
	case t.Curve != src.Curve || t.D != src.D:
		panic(fmt.Sprintf("core: transpose pack across grids (curve %v/%v, depth %d/%d)", t.Curve, src.Curve, t.D, src.D))
	case t.TR != src.TC || t.TC != src.TR || t.Rows != src.Cols || t.Cols != src.Rows:
		panic(fmt.Sprintf("core: transpose pack %dx%d (%dx%d tiles) from %dx%d (%dx%d tiles)",
			t.Rows, t.Cols, t.TR, t.TC, src.Rows, src.Cols, src.TR, src.TC))
	case t.gr != 0 || src.gr != 0:
		panic("core: transpose pack on canonical storage")
	}
	coords := t.coords()
	if !e.spawns(c, t.elems()) {
		t.transposeTiles(src, coords, 0, t.tiles())
		return
	}
	chunked(c, obs.KindPack, t.tiles(), func(lo, hi int) { t.transposeTiles(src, coords, lo, hi) })
}

// transposeTiles fills tiles [lo, hi) of the storage walk from their
// mirror tiles of src: packTransposeOf's ranged body.
func (t *Tiled) transposeTiles(src *Tiled, coords []uint32, lo, hi int) {
	sts := src.TR * src.TC
	for s := lo; s < hi; s++ {
		i0, j0, base, _ := t.tileAt(s, coords)
		dst := t.Data[base : base+sts]
		sbase := int(t.Curve.S(uint32(j0/t.TC), uint32(i0/t.TR), t.D)) * sts
		// dst tile is TR×TC column-major; its (r, c) element is the
		// source tile's (c, r) element, src leading dimension src.TR.
		for c := 0; c < t.TC; c++ {
			scol := src.Data[sbase+c : sbase+sts]
			for r := 0; r < t.TR; r++ {
				dst[c*t.TR+r] = scol[r*src.TR]
			}
		}
	}
}

// zero clears a contiguous buffer — the "zero" half of the fused
// epilogue's zero+accumulate C discipline — spread over the pool like
// pack.
func (e *exec) zero(c *sched.Ctx, data []float64) {
	if !e.spawns(c, len(data)) {
		vZero(data)
		return
	}
	chunked(c, obs.KindZero, len(data), func(lo, hi int) { vZero(data[lo:hi]) })
}

// scaleC applies β to the logical C, once, before the call's first
// product: the atomicity anchor of the failure contract ("C holds the
// β-scaled inputs"). A large C is scaled in column chunks under a shield,
// so a cancellation cannot leave it half-applied; the pass is one bounded
// memory sweep, within the documented abort latency.
func (e *exec) scaleC(c *sched.Ctx, C *matrix.Dense, beta float64) {
	if beta == 1 {
		return
	}
	if !e.spawns(c, C.Rows*C.Cols) {
		C.Scale(beta)
		return
	}
	c.Shield(func(c *sched.Ctx) {
		chunked(c, obs.KindScale, C.Cols, func(lo, hi int) { C.ScaleCols(beta, lo, hi) })
	})
}
