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
	tiles int // grid rows in tiles at this level
	// tilesc is the grid column count when it differs from tiles — the
	// rectangular grids of the table-driven ⟨m,k,n⟩ algorithms on
	// canonical storage. Zero means square (== tiles), so every
	// pre-existing constructor and literal keeps its meaning; read it
	// through gridC. Tiled (recursive-curve) storage is always square.
	tilesc int
	tr     int // tile rows
	tc     int // tile columns
	// ld is the leading dimension for canonical storage; ld == 0 marks
	// tiled (recursive) storage, where each tile is contiguous with
	// leading dimension tr.
	ld     int
	curve  layout.Curve
	orient layout.Orient
}

// tiledStore reports whether the Mat uses recursive tile storage.
func (m Mat) tiledStore() bool { return m.ld == 0 }

// gridC is the grid column count (tilesc, defaulting to square).
func (m Mat) gridC() int {
	if m.tilesc != 0 {
		return m.tilesc
	}
	return m.tiles
}

// rows and cols return the (padded) element extent of this sub-matrix.
func (m Mat) rows() int { return m.tiles * m.tr }
func (m Mat) cols() int { return m.gridC() * m.tc }

// tileElems is the storage footprint of one tile.
func (m Mat) tileElems() int { return m.tr * m.tc }

// elems is the total number of elements covered by this sub-matrix.
func (m Mat) elems() int { return m.tiles * m.gridC() * m.tileElems() }

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

// subGrid returns block (i, j) of the pr×pc partition of this
// sub-matrix's tile grid — the ⟨m,k,n⟩ generalization of quad. Tiled
// storage only supports the quadrant split (the curves are quad-based);
// the table engine hands rectangular partitions to canonical storage,
// where the split is plain offset arithmetic. Both grid extents must
// divide evenly (the driver's geometry guarantees it).
func (m Mat) subGrid(i, j, pr, pc int) Mat {
	if m.tiledStore() {
		if pr != 2 || pc != 2 {
			panic("core: non-quadrant subGrid on tiled storage")
		}
		return m.quad(i*2 + j)
	}
	rt, ct := m.tiles/pr, m.gridC()/pc
	c := m
	c.tiles, c.tilesc = rt, ct
	if ct == rt {
		// Normalize square results to the zero (square) encoding so the
		// quadrant-based algorithms can take over below a table handoff.
		c.tilesc = 0
	}
	c.data = m.data[i*rt*m.tr+j*ct*m.tc*m.ld:]
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

// permCache memoizes orientation permutations per (curve, from, to,
// depth); see layout.Perm. Depth here is lg(tiles). A flat array of
// atomic pointers rather than a sync.Map: map lookups box the struct
// key into an interface, which allocates on every hot-path query —
// unacceptable now that the steady state is pinned at zero allocations.
const maxPermDepth = 12

var permCache [8][4][4][maxPermDepth + 1]atomic.Pointer[[]int32]

func permFor(c layout.Curve, from, to layout.Orient, d uint) []int32 {
	if int(c) >= len(permCache) || from > 3 || to > 3 || d > maxPermDepth {
		// Off the cacheable grid (absurd depth): compute directly.
		return c.Perm(from, to, d)
	}
	slot := &permCache[c][from][to][d]
	if p := slot.Load(); p != nil {
		return *p
	}
	p := c.Perm(from, to, d)
	if slot.CompareAndSwap(nil, &p) {
		return p
	}
	return *slot.Load()
}

// log2tiles returns lg(tiles) for a power-of-two tile count.
func log2tiles(tiles int) uint {
	var d uint
	for t := tiles; t > 1; t >>= 1 {
		d++
	}
	return d
}

// tileMap describes how a tile position s in the destination's ordering
// maps to the corresponding position in a source's ordering — the
// concrete, devirtualized form of the old per-tile closure, so the hot
// tile loops of exec.ew2/ew3 make no indirect calls.
//
// For Gray-Morton's two orientations the paper's half-step symmetry
// applies: the mapping is a rotation by half the tile count, so the pre-
// and post-additions run as two contiguous half-streams (tmRotate). For
// Hilbert the mapping is a memoized permutation array ("global mapping
// arrays" in Section 4, tmPerm); the loop-control cost is one indexed
// load per tile.
type tileMap struct {
	mode uint8
	half int     // tmRotate: rotation distance (= tiles²/2)
	perm []int32 // tmPerm: memoized permutation
}

const (
	tmIdent uint8 = iota
	tmRotate
	tmPerm
)

// resolveTileMap computes the dst→src tile mapping for two tiled Mats
// of equal geometry on the same curve.
func resolveTileMap(dst, src Mat) tileMap {
	if dst.curve != src.curve {
		panic("core: tile map across curves")
	}
	if dst.orient == src.orient {
		return tileMap{mode: tmIdent}
	}
	if dst.curve == layout.GrayMorton {
		half := dst.tiles * dst.tiles / 2
		if half == 0 {
			// A single tile: the half-rotation is the identity.
			return tileMap{mode: tmIdent}
		}
		return tileMap{mode: tmRotate, half: half}
	}
	return tileMap{mode: tmPerm,
		perm: permFor(dst.curve, dst.orient, src.orient, log2tiles(dst.tiles))}
}

// at maps one destination tile position to its source position. This is
// a direct (devirtualized) call; the streaming cores below avoid even
// this per-tile switch on the common paths.
func (m tileMap) at(s, total int) int {
	switch m.mode {
	case tmIdent:
		return s
	case tmRotate:
		s += m.half
		if s >= total {
			s -= total
		}
		return s
	default:
		return int(m.perm[s])
	}
}

// tileIndexMap is the closure form of resolveTileMap, retained as the
// executable specification the inlined loops are tested against (nil
// when the orderings coincide). Hot paths use resolveTileMap and the
// ranged cores instead.
func tileIndexMap(dst, src Mat) func(int) int {
	m := resolveTileMap(dst, src)
	if m.mode == tmIdent {
		return nil
	}
	total := dst.tiles * dst.tiles
	return func(s int) int { return m.at(s, total) }
}

// checkGeom panics unless the Mats have identical tile geometry.
func checkGeom(ms ...Mat) {
	for _, m := range ms[1:] {
		if m.tiles != ms[0].tiles || m.gridC() != ms[0].gridC() ||
			m.tr != ms[0].tr || m.tc != ms[0].tc {
			panic(fmt.Sprintf("core: geometry mismatch %dx%dx(%dx%d) vs %dx%dx(%dx%d)",
				ms[0].tiles, ms[0].gridC(), ms[0].tr, ms[0].tc,
				m.tiles, m.gridC(), m.tr, m.tc))
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

// ew2Tiles applies a two-operand kernel over destination tiles [lo, hi)
// of two tiled Mats, with the source resolved through m. The ranged
// form is what the pool-parallel element-wise passes chunk over. The
// identity case is one contiguous stream; the Gray-Morton rotation is
// at most two contiguous segments (the half-step symmetry inlined as
// direct arithmetic); only the Hilbert permutation pays a per-tile
// indexed load — and none of them makes an indirect call in the loop.
func ew2Tiles(dst, a Mat, m tileMap, lo, hi int, f func(dst, a []float64)) {
	ts := dst.tileElems()
	switch m.mode {
	case tmIdent:
		f(dst.data[lo*ts:hi*ts], a.data[lo*ts:hi*ts])
	case tmRotate:
		total := dst.tiles * dst.tiles
		mid := total - m.half // where s+half wraps
		if cut := min(hi, mid); lo < cut {
			f(dst.data[lo*ts:cut*ts], a.data[(lo+m.half)*ts:(cut+m.half)*ts])
		}
		if cut := max(lo, mid); cut < hi {
			off := m.half - total
			f(dst.data[cut*ts:hi*ts], a.data[(cut+off)*ts:(hi+off)*ts])
		}
	default:
		for s := lo; s < hi; s++ {
			sa := int(m.perm[s])
			f(dst.data[s*ts:s*ts+ts], a.data[sa*ts:sa*ts+ts])
		}
	}
}

// ew3Tiles is the three-operand counterpart of ew2Tiles, with each
// source resolved through its own map.
func ew3Tiles(dst, a, b Mat, ma, mb tileMap, lo, hi int, f func(dst, a, b []float64)) {
	ts := dst.tileElems()
	if ma.mode == tmIdent && mb.mode == tmIdent {
		f(dst.data[lo*ts:hi*ts], a.data[lo*ts:hi*ts], b.data[lo*ts:hi*ts])
		return
	}
	total := dst.tiles * dst.tiles
	if ma.mode != tmPerm && mb.mode != tmPerm {
		// Rotations (and identities) only. Both rotations are by the
		// same half (same curve, same tile count), so a single split at
		// the wrap point leaves pieces where every operand is one
		// contiguous stream at a constant offset.
		mid := total / 2
		seg := func(lo, hi int) {
			if lo >= hi {
				return
			}
			offA, offB := 0, 0
			if ma.mode == tmRotate {
				offA = ma.half
				if lo >= mid {
					offA -= total
				}
			}
			if mb.mode == tmRotate {
				offB = mb.half
				if lo >= mid {
					offB -= total
				}
			}
			f(dst.data[lo*ts:hi*ts],
				a.data[(lo+offA)*ts:(hi+offA)*ts],
				b.data[(lo+offB)*ts:(hi+offB)*ts])
		}
		seg(lo, min(hi, mid))
		seg(max(lo, mid), hi)
		return
	}
	for s := lo; s < hi; s++ {
		sa := ma.at(s, total)
		sb := mb.at(s, total)
		f(dst.data[s*ts:s*ts+ts], a.data[sa*ts:sa*ts+ts], b.data[sb*ts:sb*ts+ts])
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
// mixed storage.
func checkEW(ms ...Mat) {
	checkGeom(ms...)
	for _, m := range ms[1:] {
		if m.tiledStore() != ms[0].tiledStore() {
			panic("core: mixed storage in element-wise op")
		}
	}
}
