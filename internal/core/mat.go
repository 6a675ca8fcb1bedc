// Package core implements the paper's central contribution: the three
// recursive matrix multiplication algorithms (standard, Strassen,
// Winograd — Section 2) executing over the recursive array layouts of
// Section 3, with the address computation embedded implicitly in the
// recursive control structure as described in Section 4.
//
// A matrix participating in a multiplication is either
//
//   - tiled: stored as a 2^d × 2^d grid of t_R × t_C column-major tiles,
//     the tiles ordered along one of the five recursive curves
//     (equation (3) of the paper); or
//   - canonical: an ordinary column-major array with a leading
//     dimension, padded to the same 2^d tile grid so that the identical
//     control structure runs over both (the L_C baseline of Section 5).
//
// The recursion never evaluates the S function per element: a quadrant
// descriptor (Mat) carries the base offset and, for the multi-orientation
// curves, the orientation; descending to a child quadrant is one table
// lookup and one offset addition. Tiles only acquire addresses when the
// recursion bottoms out, exactly as Section 4 prescribes.
package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/matrix"
)

// Mat describes one square sub-grid of tiles at some level of the
// recursion: either a contiguous run of recursively-ordered tiles or a
// strided view of a canonical (column-major) array. All three matrices
// of a multiplication share the same tiles-per-side count at every
// level, so quadrant descent stays in lock step.
type Mat struct {
	data  []float64
	tiles int // grid side in tiles at this level
	tr    int // tile rows
	tc    int // tile columns
	// ld is the leading dimension for canonical storage; ld == 0 marks
	// tiled (recursive) storage, where each tile is contiguous with
	// leading dimension tr.
	ld     int
	curve  layout.Curve
	orient layout.Orient
}

// tiledStore reports whether the Mat uses recursive tile storage.
func (m Mat) tiledStore() bool { return m.ld == 0 }

// rows and cols return the (padded) element extent of this sub-matrix.
func (m Mat) rows() int { return m.tiles * m.tr }
func (m Mat) cols() int { return m.tiles * m.tc }

// tileElems is the storage footprint of one tile.
func (m Mat) tileElems() int { return m.tr * m.tc }

// elems is the total number of elements covered by this sub-matrix.
func (m Mat) elems() int { return m.tiles * m.tiles * m.tileElems() }

// quad returns the descriptor of geometric quadrant q (layout.QuadNW..
// layout.QuadSE). For tiled storage this is the implicit address
// computation of Section 4: the child at curve position p occupies the
// p-th quarter of the parent's contiguous range, in the orientation
// given by the curve's descent table. For canonical storage it is plain
// row/column offset arithmetic with an unchanged leading dimension.
func (m Mat) quad(q int) Mat {
	if m.tiles < 2 {
		panic("core: quad on leaf Mat")
	}
	half := m.tiles / 2
	c := m
	c.tiles = half
	if m.tiledStore() {
		p := m.curve.PosOf(m.orient, q)
		sz := half * half * m.tileElems()
		c.data = m.data[p*sz:]
		c.orient = m.curve.ChildOrient(m.orient, p)
		return c
	}
	off := (q >> 1 & 1) * half * m.tr
	off += (q & 1) * half * m.tc * m.ld
	c.data = m.data[off:]
	return c
}

// leafLD returns the leading dimension to hand the leaf kernel: the
// enclosing array's for canonical storage (the memory-system behavior
// the paper studies), the tile's own row count for recursive storage.
func (m Mat) leafLD() int {
	if m.tiledStore() {
		return m.tr
	}
	return m.ld
}

// dense wraps a canonical Mat as a matrix.Dense view.
func (m Mat) dense() *matrix.Dense {
	if m.tiledStore() {
		panic("core: dense view of tiled Mat")
	}
	return matrix.FromSlice(m.data, m.rows(), m.cols(), m.ld)
}

// maxPosDepth bounds the memoized position tables: a 4096×4096 tile
// grid, beyond any tile choice. A deeper grid builds its table per call.
const maxPosDepth = 12

// posCache memoizes tile-position tables per (curve, orientation,
// depth): posFor(c, o, d)[i<<d|j] is the curve position of tile (i, j)
// in a 2^d × 2^d grid laid out in orientation o — where quad's descent
// (PosOf, then ChildOrient, level by level) finds it. They are Section
// 4's "global mapping arrays", and the one way the engine finds a tile
// below the recursion: the serial base, the conversion walks and the
// additions between quadrants of different orientations. A flat array
// of atomic pointers rather than a sync.Map, whose boxed keys would
// allocate on every lookup.
var posCache [8][4][maxPosDepth + 1]atomic.Pointer[[]int32]

func posFor(c layout.Curve, o layout.Orient, d uint) []int32 {
	build := func() []int32 {
		pos := make([]int32, 1<<(2*d))
		for s := range pos {
			i, j := c.SInverseOriented(o, uint64(s), d)
			pos[int(i)<<d|int(j)] = int32(s)
		}
		return pos
	}
	if int(c) >= len(posCache) || o > 3 || d > maxPosDepth {
		return build()
	}
	// Concurrent first users agree on whichever table landed first.
	slot := &posCache[c][o][d]
	if p := slot.Load(); p != nil {
		return *p
	}
	pos := build()
	if slot.CompareAndSwap(nil, &pos) {
		return pos
	}
	return *slot.Load()
}

// tileAddr finds tile (i, j) of a Mat's 2^d × 2^d grid, as an element
// offset into its data: tile pos[i·side+j] of tiled storage, i·tr +
// j·tc·ld of canonical storage. Its tile's leading dimension is the
// Mat's leafLD.
type tileAddr struct {
	pos        []int32
	rs, cs, ts int
}

func addrOf(m Mat, d uint) tileAddr {
	if m.tiledStore() {
		return tileAddr{pos: posFor(m.curve, m.orient, d), rs: m.tiles, ts: m.tileElems()}
	}
	return tileAddr{rs: m.tr, cs: m.tc * m.ld}
}

func (a *tileAddr) at(i, j int) int {
	if a.pos != nil {
		return int(a.pos[i*a.rs+j]) * a.ts
	}
	return i*a.rs + j*a.cs
}

// log2tiles returns lg(tiles) for a power-of-two tile count.
func log2tiles(tiles int) uint { return uint(bits.TrailingZeros(uint(tiles))) }

// checkGeom panics unless the Mats have identical tile geometry.
func checkGeom(ms ...Mat) {
	for _, m := range ms[1:] {
		if m.tiles != ms[0].tiles || m.tr != ms[0].tr || m.tc != ms[0].tc {
			panic(fmt.Sprintf("core: geometry mismatch %dx(%dx%d) vs %dx(%dx%d)",
				ms[0].tiles, ms[0].tr, ms[0].tc, m.tiles, m.tr, m.tc))
		}
	}
}

// vAdd / vSub / vAcc / vDec are the streaming element kernels.
func vAdd(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func vSub(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func vAcc(dst, a []float64) {
	for i := range dst {
		dst[i] += a[i]
	}
}

func vDec(dst, a []float64) {
	for i := range dst {
		dst[i] -= a[i]
	}
}

func vCopy(dst, a []float64) {
	copy(dst, a)
}

func vNeg(dst, a []float64) {
	for i := range a {
		dst[i] = -a[i]
	}
}

func vZero(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// matZero clears a sub-matrix.
func matZero(dst Mat) {
	if dst.tiledStore() {
		vZero(dst.data[:dst.elems()])
		return
	}
	dst.dense().Zero()
}

// ew2Tiles applies a two-operand kernel over tiles [lo, hi) of two tiled
// Mats: the ranged form is what the pool-parallel element-wise passes
// chunk over. When the orientations agree the tiles are curve positions
// and the range is one contiguous stream; when they differ they are grid
// tiles g = i·side + j, each operand's found through its own position
// table (ad, aa).
func ew2Tiles(dst, a Mat, ad, aa tileAddr, lo, hi int, f func(dst, a []float64)) {
	ts := dst.tileElems()
	if dst.orient == a.orient {
		f(dst.data[lo*ts:hi*ts], a.data[lo*ts:hi*ts])
		return
	}
	d := log2tiles(dst.tiles)
	for g := lo; g < hi; g++ {
		i, j := g>>d, g&(dst.tiles-1)
		od, oa := ad.at(i, j), aa.at(i, j)
		f(dst.data[od:od+ts], a.data[oa:oa+ts])
	}
}

// ew3Tiles is the three-operand counterpart of ew2Tiles: one stream when
// all three share an orientation, each operand's own table otherwise.
func ew3Tiles(dst, a, b Mat, ad, aa, ab tileAddr, lo, hi int, f func(dst, a, b []float64)) {
	ts := dst.tileElems()
	if dst.orient == a.orient && dst.orient == b.orient {
		f(dst.data[lo*ts:hi*ts], a.data[lo*ts:hi*ts], b.data[lo*ts:hi*ts])
		return
	}
	d := log2tiles(dst.tiles)
	for g := lo; g < hi; g++ {
		i, j := g>>d, g&(dst.tiles-1)
		od, oa, ob := ad.at(i, j), aa.at(i, j), ab.at(i, j)
		f(dst.data[od:od+ts], a.data[oa:oa+ts], b.data[ob:ob+ts])
	}
}

// ew2Cols and ew3Cols are the ranged cores for canonical storage,
// walking columns [lo, hi).
func ew2Cols(dst, a Mat, lo, hi int, f func(dst, a []float64)) {
	rows := dst.rows()
	for j := lo; j < hi; j++ {
		f(dst.data[j*dst.ld:j*dst.ld+rows], a.data[j*a.ld:j*a.ld+rows])
	}
}

func ew3Cols(dst, a, b Mat, lo, hi int, f func(dst, a, b []float64)) {
	rows := dst.rows()
	for j := lo; j < hi; j++ {
		f(dst.data[j*dst.ld:j*dst.ld+rows],
			a.data[j*a.ld:j*a.ld+rows],
			b.data[j*b.ld:j*b.ld+rows])
	}
}

// checkEW validates an element-wise operand set: equal geometry, no
// mixed storage, and tiled operands on one curve.
func checkEW(ms ...Mat) {
	checkGeom(ms...)
	for _, m := range ms[1:] {
		if m.tiledStore() != ms[0].tiledStore() {
			panic("core: mixed storage in element-wise op")
		}
		if m.tiledStore() && m.curve != ms[0].curve {
			panic("core: element-wise op across curves")
		}
	}
}
