package core

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
)

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
}

// canon reports canonical storage (the L_C baseline of Section 5), the
// one a ColMajor Tiled has: Data is one padded column-major panel of
// 2^D × 2^D tiles with leading dimension 2^D·TR. The driver packs and
// unpacks it through the same tile walk as the curves, so one block loop
// serves both storages.
func (t *Tiled) canon() bool { return t.Curve == layout.ColMajor }

// tiles and elems return the tile count and the padded element count.
func (t *Tiled) tiles() int { return 1 << (2 * t.D) }
func (t *Tiled) elems() int { return t.tiles() * t.TR * t.TC }

// PaddedRows returns the padded row extent.
func (t *Tiled) PaddedRows() int { return t.TR << t.D }

// Mat returns the whole-matrix quadrant descriptor in the reference
// orientation.
func (t *Tiled) Mat() Mat {
	m := Mat{data: t.Data, tiles: 1 << t.D, tr: t.TR, tc: t.TC, curve: t.Curve}
	if t.canon() {
		m.ld = t.PaddedRows()
	}
	return m
}

// At returns logical element (i, j), evaluating the layout function of
// equation (3): tile coordinates through the curve's S function, tile
// offset through the canonical column-major layout — or, on canonical
// storage, the padded panel's column-major offset. It is the reference
// the conversion walks are tested against, and a plan's At, not a hot
// path: the engine never calls it.
func (t *Tiled) At(i, j int) float64 {
	if t.canon() {
		return t.Data[j*t.PaddedRows()+i]
	}
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
// track of the call's tracer.
func (e *exec) chunked(c *sched.Ctx, kind obs.Kind, n int, f func(lo, hi int)) {
	chunks := min(max(32, 4*c.Workers()), n)
	fns := make([]func(*sched.Ctx), chunks)
	for i := range fns {
		lo, hi := n*i/chunks, n*(i+1)/chunks
		fns[i] = func(c *sched.Ctx) {
			tr := e.tr
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
	a := addrOf(t.Mat(), t.D)
	if !e.spawns(c, t.elems()) {
		t.packTiles(src, trans, alpha, a, 0, t.tiles())
		return
	}
	s := *src // the chunks' copy: a caller's view stays on its stack
	e.chunked(c, obs.KindPack, t.tiles(), func(lo, hi int) { t.packTiles(&s, trans, alpha, a, lo, hi) })
}

// packTiles packs grid tiles [lo, hi), column by column, each found
// through a: pack's ranged body.
func (t *Tiled) packTiles(src *matrix.Dense, trans bool, alpha float64, a tileAddr, lo, hi int) {
	faultinject.Point("core.pack")
	ld := t.Mat().leafLD()
	for g := lo; g < hi; g++ {
		ti, tj := g&(1<<t.D-1), g>>t.D
		i0, j0, base := ti*t.TR, tj*t.TC, a.at(ti, tj)
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

// unpackAccumulate folds the C epilogue of a block multiplication into
// the conversion walk: dst ← β·dst + α·(logical region of t), discarding
// padding. With the product in a tiled buffer (no C pack, no zero-fill),
// C is read and written exactly once, β and α applied during the stream,
// and dst stays untouched until the block's compute has fully succeeded.
// At β = 0 the walk stores α·t without reading dst (BLAS reads no C
// then), a −0 as −0; at β = 1 it accumulates; otherwise it stores
// fl(β·c) + fl(α·t), the bits of scaling C first. Spread over the pool
// like pack, but under a shield: once the epilogue starts, a
// cancellation must not leave the block half-applied.
func (t *Tiled) unpackAccumulate(e *exec, c *sched.Ctx, dst *matrix.Dense, alpha, beta float64) {
	if dst.Rows != t.Rows || dst.Cols != t.Cols {
		panic(fmt.Sprintf("core: unpack tiled %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols))
	}
	a := addrOf(t.Mat(), t.D)
	if !e.spawns(c, t.elems()) {
		t.unpackAccumulateTiles(dst, alpha, beta, a, 0, t.tiles())
		return
	}
	d := *dst // as pack's s
	c.Shield(func(c *sched.Ctx) {
		e.chunked(c, obs.KindUnpack, t.tiles(), func(lo, hi int) { t.unpackAccumulateTiles(&d, alpha, beta, a, lo, hi) })
	})
}

// unpackAccumulateTiles folds grid tiles [lo, hi), column by column,
// into dst: unpackAccumulate's ranged body.
func (t *Tiled) unpackAccumulateTiles(dst *matrix.Dense, alpha, beta float64, a tileAddr, lo, hi int) {
	ld := t.Mat().leafLD()
	for g := lo; g < hi; g++ {
		ti, tj := g&(1<<t.D-1), g>>t.D
		i0, j0, base := ti*t.TR, tj*t.TC, a.at(ti, tj)
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
			// float64() rounds each product first: never fused (arm64, ppc64, s390x).
			switch {
			case beta == 0:
				for ii := range dcol {
					dcol[ii] = alpha * scol[ii]
				}
			case beta != 1:
				for ii := range dcol {
					dcol[ii] = float64(beta*dcol[ii]) + float64(alpha*scol[ii])
				}
			case alpha == 1:
				for ii := range dcol {
					dcol[ii] += scol[ii]
				}
			default:
				for ii := range dcol {
					dcol[ii] += float64(alpha * scol[ii])
				}
			}
		}
	}
}

// packTransposeOf fills t with the transpose of an already-packed tiled
// matrix, entirely within the recursive layout: destination tile (i, j)
// is the element-wise transpose of source tile (j, i), each located
// through its own grid's position table. This is how one packed operand
// serves both slots of a symmetric product (SYRK's α·A·Aᵀ): the second
// pack never re-reads the strided column-major source. Both matrices
// must share depth and mirrored tile shapes (t is TC×TR tiles where src
// is TR×TC), and t its curve with src, or src be a partner's panel
// (geom.hdrB).
func (t *Tiled) packTransposeOf(e *exec, c *sched.Ctx, src *Tiled) {
	switch {
	case t.Curve != src.Curve && !src.canon() || t.D != src.D:
		panic(fmt.Sprintf("core: transpose pack across grids (curve %v/%v, depth %d/%d)", t.Curve, src.Curve, t.D, src.D))
	case t.TR != src.TC || t.TC != src.TR || t.Rows != src.Cols || t.Cols != src.Rows:
		panic(fmt.Sprintf("core: transpose pack %dx%d (%dx%d tiles) from %dx%d (%dx%d tiles)",
			t.Rows, t.Cols, t.TR, t.TC, src.Rows, src.Cols, src.TR, src.TC))
	case t.canon():
		panic("core: transpose pack on canonical storage")
	}
	a, sa := addrOf(t.Mat(), t.D), addrOf(src.Mat(), src.D)
	if !e.spawns(c, t.elems()) {
		t.transposeTiles(src, a, sa, 0, t.tiles())
		return
	}
	e.chunked(c, obs.KindPack, t.tiles(), func(lo, hi int) { t.transposeTiles(src, a, sa, lo, hi) })
}

// transposeTiles fills grid tiles [lo, hi), column by column, from their
// mirror tiles of src, found through sa: packTransposeOf's ranged body.
func (t *Tiled) transposeTiles(src *Tiled, a, sa tileAddr, lo, hi int) {
	sld := src.Mat().leafLD()
	for g := lo; g < hi; g++ {
		ti, tj := g&(1<<t.D-1), g>>t.D
		dst, sbase := t.Data[a.at(ti, tj):][:t.TR*t.TC], sa.at(tj, ti)
		// dst tile is TR×TC column-major; its (r, c) element is the
		// source tile's (c, r) element, at src's leading dimension.
		for c := 0; c < t.TC; c++ {
			scol := src.Data[sbase+c:]
			for r := 0; r < t.TR; r++ {
				dst[c*t.TR+r] = scol[r*sld]
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
	e.chunked(c, obs.KindZero, len(data), func(lo, hi int) { vZero(data[lo:hi]) })
}
