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

// parallelRanges splits [0, n) into roughly equal chunks for pool-wide
// data-parallel loops.
func parallelRanges(n, chunks int) [][2]int {
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	rs := make([][2]int, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo := n * c / chunks
		hi := n * (c + 1) / chunks
		if lo < hi {
			rs = append(rs, [2]int{lo, hi})
		}
	}
	return rs
}

// runChunks executes f over the ranges in parallel on the pool,
// honoring ctx: a cancelled context stops chunks that have not started
// (each chunk is one task, so cancellation latency is bounded by one
// chunk) and surfaces the context error. Panics inside f on the pool
// are returned as a *sched.TaskError; the single-chunk fast path runs
// on the caller's goroutine, where a panic propagates raw to the
// public-API recover boundary.
//
// kind labels each chunk's span on its worker's trace track when a
// tracer is active. The single-chunk fast path emits nothing — it runs
// on the caller's goroutine, which has no worker track.
func runChunks(ctx context.Context, pool *sched.Pool, n int, kind obs.Kind, f func(lo, hi int)) error {
	// The single-chunk fast path never touches the pool, so check the
	// closed and cancelled states explicitly to keep the error contract
	// uniform across problem sizes.
	if pool.Closed() {
		return sched.ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: not started: %w", context.Cause(ctx))
	}
	// At least 32 chunks regardless of worker count: each chunk is one
	// task and tasks are the cancellation granularity, so small chunks
	// bound the abort latency even on a single worker.
	chunks := pool.Workers() * 4
	if chunks < 32 {
		chunks = 32
	}
	rs := parallelRanges(n, chunks)
	if len(rs) == 1 {
		f(rs[0][0], rs[0][1])
		return nil
	}
	fns := make([]func(*sched.Ctx), len(rs))
	for i, r := range rs {
		r := r
		fns[i] = func(c *sched.Ctx) {
			tr := obs.Cur()
			if tr == nil {
				f(r[0], r[1])
				return
			}
			t0 := time.Now()
			f(r[0], r[1])
			tr.Span(c.WorkerID(), kind, t0, time.Since(t0), int64(r[1]-r[0]))
		}
	}
	_, _, err := pool.RunCtx(ctx, func(c *sched.Ctx) { c.Parallel(fns...) })
	return err
}

// Pack converts op(src), scaled by alpha, from column-major into the
// tiled layout, inserting explicit zero padding. The remapping works
// tile-by-tile and is parallelized over tiles across the pool, as
// Section 4 describes ("the remapping of the individual tiles is again
// amenable to parallel execution"). Any required transposition is folded
// into this step, so the multiplication core needs no transposed
// variants.
func (t *Tiled) Pack(ctx context.Context, pool *sched.Pool, src *matrix.Dense, trans bool, alpha float64) error {
	srows, scols := src.Rows, src.Cols
	if trans {
		srows, scols = scols, srows
	}
	if srows != t.Rows || scols != t.Cols {
		return fmt.Errorf("core: pack %dx%d into tiled %dx%d", srows, scols, t.Rows, t.Cols)
	}
	coords := t.coords()
	return runChunks(ctx, pool, t.tiles(), obs.KindPack, func(lo, hi int) {
		t.packTiles(src, trans, alpha, coords, lo, hi)
	})
}

// packTiles packs tiles [lo, hi) of the storage walk — the serial body
// Pack parallelizes over the pool. It is also the conversion primitive
// of the wave drivers, whose tasks already execute on pool workers and
// therefore must not re-enter pool.RunCtx.
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

// packSerial is Pack run entirely on the calling goroutine — same
// validation, same per-element arithmetic, no pool involvement. The
// per-tile loop body is shared with Pack (packTiles), so the two forms
// are bit-exact by construction.
func (t *Tiled) packSerial(src *matrix.Dense, trans bool, alpha float64) error {
	srows, scols := src.Rows, src.Cols
	if trans {
		srows, scols = scols, srows
	}
	if srows != t.Rows || scols != t.Cols {
		return fmt.Errorf("core: pack %dx%d into tiled %dx%d", srows, scols, t.Rows, t.Cols)
	}
	t.packTiles(src, trans, alpha, t.coords(), 0, t.tiles())
	return nil
}

// Unpack copies the logical region back out to a column-major matrix,
// discarding padding. Parallelized over tiles like Pack.
func (t *Tiled) Unpack(ctx context.Context, pool *sched.Pool, dst *matrix.Dense) error {
	if dst.Rows != t.Rows || dst.Cols != t.Cols {
		return fmt.Errorf("core: unpack tiled %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols)
	}
	coords := t.coords()
	return runChunks(ctx, pool, t.tiles(), obs.KindUnpack, func(lo, hi int) {
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
				copy(dst.Data[(j0+jj)*dst.Stride+i0:(j0+jj)*dst.Stride+i0+vr],
					t.Data[base+jj*ld:base+jj*ld+vr])
			}
		}
	})
}

// UnpackAccumulate folds the C epilogue of a block multiplication into
// the conversion walk: dst += alpha · (logical region of t), discarding
// padding. With the product accumulated into a zero-filled tiled buffer,
// this replaces the old pack-C / compute / unpack-C round-trip — C is
// read and written exactly once, alpha is applied for free during the
// stream, and dst stays untouched (β-scaled) until the block's compute
// has fully succeeded. beta is what dst was scaled by: after β = 0 it
// holds nothing the result may depend on (BLAS reads no C then), and the
// walk stores 0 + alpha·t without reading it.
// Parallelized over tiles like Unpack.
func (t *Tiled) UnpackAccumulate(ctx context.Context, pool *sched.Pool, dst *matrix.Dense, alpha, beta float64) error {
	if dst.Rows != t.Rows || dst.Cols != t.Cols {
		return fmt.Errorf("core: unpack tiled %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols)
	}
	coords := t.coords()
	return runChunks(ctx, pool, t.tiles(), obs.KindUnpack, func(lo, hi int) {
		t.unpackAccumulateTiles(dst, alpha, beta, coords, lo, hi)
	})
}

// unpackAccumulateTiles accumulates tiles [lo, hi) of the curve walk
// into dst — the serial body UnpackAccumulate parallelizes over the
// pool, shared with the batched wave driver (see packTiles).
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

// unpackAccumulateSerial is UnpackAccumulate on the calling goroutine —
// the epilogue primitive of the batched wave driver (see packSerial).
func (t *Tiled) unpackAccumulateSerial(dst *matrix.Dense, alpha, beta float64) error {
	if dst.Rows != t.Rows || dst.Cols != t.Cols {
		return fmt.Errorf("core: unpack tiled %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols)
	}
	t.unpackAccumulateTiles(dst, alpha, beta, t.coords(), 0, t.tiles())
	return nil
}

// PackTransposeOf fills t with the transpose of an already-packed tiled
// matrix, entirely within the recursive layout: destination tile (i, j)
// is the element-wise transpose of source tile (j, i), located through
// the curve's forward S function. This is how one packed operand serves
// both slots of a symmetric product (SYRK's α·A·Aᵀ): the second pack
// never re-reads the strided column-major source. Both matrices must
// share curve, depth, and mirrored tile shapes (t is TC×TR tiles where
// src is TR×TC).
func (t *Tiled) PackTransposeOf(ctx context.Context, pool *sched.Pool, src *Tiled) error {
	if t.Curve != src.Curve || t.D != src.D {
		return fmt.Errorf("core: transpose pack across grids (curve %v/%v, depth %d/%d)",
			t.Curve, src.Curve, t.D, src.D)
	}
	if t.TR != src.TC || t.TC != src.TR || t.Rows != src.Cols || t.Cols != src.Rows {
		return fmt.Errorf("core: transpose pack %dx%d (%dx%d tiles) from %dx%d (%dx%d tiles)",
			t.Rows, t.Cols, t.TR, t.TC, src.Rows, src.Cols, src.TR, src.TC)
	}
	if t.gr != 0 || src.gr != 0 {
		return fmt.Errorf("core: transpose pack on canonical storage")
	}
	sts := src.TR * src.TC
	coords := t.coords()
	return runChunks(ctx, pool, t.tiles(), obs.KindPack, func(lo, hi int) {
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
	})
}

// zeroFill clears a contiguous buffer in parallel across the pool — the
// "zero" half of the fused epilogue's zero+accumulate C discipline, and
// the scrub for dirty recycled buffers.
func zeroFill(ctx context.Context, pool *sched.Pool, data []float64) error {
	return runChunks(ctx, pool, len(data), obs.KindZero, func(lo, hi int) {
		vZero(data[lo:hi])
	})
}

// scaleCols scales dst's columns by alpha in parallel across the pool —
// the β·C pass of GEMM, previously a serial full-matrix walk on the
// caller's goroutine. It runs under a background context: β scaling is
// the atomicity anchor of the failure contract ("C holds the β-scaled
// inputs"), so a cancellation must not leave it half-applied; the pass
// is one bounded memory sweep, within the documented abort latency.
func scaleCols(pool *sched.Pool, dst *matrix.Dense, alpha float64) error {
	if alpha == 1 {
		return nil
	}
	return runChunks(context.Background(), pool, dst.Cols, obs.KindScale, func(lo, hi int) {
		dst.ScaleCols(alpha, lo, hi)
	})
}
