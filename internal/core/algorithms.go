package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Alg identifies one of the recursive multiplication algorithms of
// Section 2 of the paper.
type Alg uint8

const (
	// Standard is the O(n³) algorithm in its accumulate form: two
	// rounds of four independent quadrant products per level, with no
	// temporary storage. Leaf products read and write the original
	// (converted) matrices — the property Section 5.1 uses to explain
	// its memory behavior.
	Standard Alg = iota
	// Standard8 is the O(n³) algorithm exactly as written in
	// Figure 1(a): all eight quadrant products spawned at once into
	// quadrant-sized temporaries P1..P8, followed by post-additions.
	// It trades temporary storage for a shorter critical path. It and the
	// two ids below are the entries of the table registry
	// (table.go): the engine in tablemul.go runs them from their ⟨2,2,2⟩
	// coefficient tables, this one from the classical rank-8 table.
	Standard8
	// Strassen is Strassen's algorithm (Figure 1(b)): 7 recursive
	// products, 18 additions/subtractions.
	Strassen
	// Winograd is Winograd's variant (Figure 1(c)): 7 recursive
	// products, 15 additions/subtractions — the minimum possible for
	// quadrant-based recursion — at the cost of common-subexpression
	// chains with worse algorithmic locality.
	Winograd
)

func (a Alg) String() string {
	if a == Standard {
		return "standard"
	}
	if tb := tableOf(a); tb != nil {
		return tb.Name
	}
	if a == AlgAuto {
		return "auto"
	}
	return fmt.Sprintf("Alg(%d)", uint8(a))
}

// Algs lists the in-place standard recursion, then the table-driven
// ⟨2,2,2⟩ tables in registration order. Command-line
// tools derive their -alg help text from it (via AlgNames), so a newly
// registered table shows up everywhere without touching the tools.
var Algs = append([]Alg{Standard}, tableAlgs...)

// AlgNames returns the accepted algorithm names in Algs order plus
// "auto" — the single source for every CLI's -alg enumeration.
func AlgNames() []string {
	names := make([]string, len(Algs), len(Algs)+1)
	for i, a := range Algs {
		names[i] = a.String()
	}
	return append(names, "auto")
}

// ParseAlg resolves an algorithm name; "auto" selects per-shape
// auto-selection (AlgAuto). "strassen-lowmem", Section 5's
// space-conserving variant, is accepted as Strassen: that variant is
// Strassen's table run depth-first, which is what any serial run of it
// does (a MemBudget rung, or SerialCutoff at or above the grid side).
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "auto":
		return AlgAuto, nil
	case "strassen-lowmem":
		return Strassen, nil
	}
	for _, a := range Algs {
		if s == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (valid: %s)", s, strings.Join(AlgNames(), ", "))
}

// exec carries the per-call execution parameters through the recursion.
type exec struct {
	// kernel is the leaf kernel, a registry entry. When it has a
	// scratch-aware form the leaf call routes its fringe buffers through
	// the executing worker's local slot, so steady-state leaves allocate
	// nothing.
	kernel leaf.Impl
	// serialCutoff: at or below this many tiles per side the recursion
	// stops spawning tasks and runs in-frame. 1 disables all spawning.
	serialCutoff int
	// fastCutoff: at or below this many tiles per side the fast
	// algorithms switch to the standard recursion. 1 recurses the fast
	// algorithm all the way to single tiles, as the paper does.
	fastCutoff int
	// ar is the run's pre-reserved scratch arena; nil means every
	// temporary heap-allocates (the probe path, or an over-budget
	// reservation).
	ar *arena
	// ewMin: data-parallel passes over at least this many elements are
	// split across the pool (exec.spawns); 0 disables the splitting.
	ewMin int
	// tr is the tracer captured at driver-call entry (nil when tracing
	// is off): every span and instant of the call — phases, chunks,
	// leaves, arena fallbacks — goes to it, so a tracer swapped in
	// mid-call sees none of them. lane is the call's caller-side track.
	// shared marks one of a wave's several runners: the wave is one compute
	// phase and a block a wave-item span, where a lone runner's are phases.
	tr     *obs.Tracer
	lane   int32
	shared bool
}

// ewParMin is the default exec.ewMin: below half a megabyte the
// chunking overhead (closures, task headers, steal traffic) outweighs a
// memory-bound stream's cost.
const ewParMin = 1 << 16

// noSpawn is the serial cutoff of a runner that spawns nothing — one of
// a wave's as-many-as-workers, or any on a serial rung: no grid reaches it.
const noSpawn = 1 << 30

// spawns is the one rule for spreading a data-parallel pass over the
// pool (chunked): the runner's products may spawn, the pass covers at
// least ewMin elements, and the frame is bound to a worker of a pool
// with more than one. Small passes and serial(-degraded) runs take the
// plain streaming path.
func (e *exec) spawns(c *sched.Ctx, elems int) bool {
	return e.serialCutoff < noSpawn && e.ewMin > 0 && elems >= e.ewMin && c.Workers() >= 2 && c.WorkerID() >= 0
}

// ewPar is spawns for an element-wise pass of the recursion: at a level
// whose parent still spawns (tiles·2 above the serial cutoff).
func (e *exec) ewPar(c *sched.Ctx, dst Mat) bool {
	return e.par(dst.tiles*2) && e.spawns(c, dst.elems())
}

// ew2 applies a two-operand element-wise kernel (dst, a) over equal
// geometry, e.g. dst += a. When tiled operands share an orientation the
// whole region is one contiguous stream and f runs once over it — the
// "streaming through the memory hierarchy" case Section 4 highlights;
// when they differ, each operand finds a tile in its own position table
// (addrOf). Canonical operands are walked column by column. A large pass
// is chunked over the pool (ewPar), so the top-level addition streams —
// O(n²) work on the critical path — do not run single-threaded per node.
// Accounting stays with the caller (accountAdd).
func (e *exec) ew2(c *sched.Ctx, dst, a Mat, f func(dst, a []float64)) {
	checkEW(dst, a)
	d, n := log2tiles(dst.tiles), dst.tiles*dst.tiles
	ad, aa := addrOf(dst, d), addrOf(a, d)
	switch par := e.ewPar(c, dst); {
	case !dst.tiledStore() && !par:
		ew2Cols(dst, a, 0, dst.cols(), f)
	case !dst.tiledStore():
		e.chunked(c, 0, dst.cols(), func(lo, hi int) { ew2Cols(dst, a, lo, hi, f) })
	case !par:
		ew2Tiles(dst, a, ad, aa, 0, n, f)
	default:
		e.chunked(c, 0, n, func(lo, hi int) { ew2Tiles(dst, a, ad, aa, lo, hi, f) })
	}
}

// ew3 is the three-operand counterpart of ew2, e.g. dst = a + b.
func (e *exec) ew3(c *sched.Ctx, dst, a, b Mat, f func(dst, a, b []float64)) {
	checkEW(dst, a, b)
	d, n := log2tiles(dst.tiles), dst.tiles*dst.tiles
	ad, aa, ab := addrOf(dst, d), addrOf(a, d), addrOf(b, d)
	switch par := e.ewPar(c, dst); {
	case !dst.tiledStore() && !par:
		ew3Cols(dst, a, b, 0, dst.cols(), f)
	case !dst.tiledStore():
		e.chunked(c, 0, dst.cols(), func(lo, hi int) { ew3Cols(dst, a, b, lo, hi, f) })
	case !par:
		ew3Tiles(dst, a, b, ad, aa, ab, 0, n, f)
	default:
		e.chunked(c, 0, n, func(lo, hi int) { ew3Tiles(dst, a, b, ad, aa, ab, lo, hi, f) })
	}
}

// accountAdd records the work of one quadrant-sized element-wise pass.
func accountAdd(c *sched.Ctx, m Mat) {
	c.Account(float64(m.elems()))
}

// mul dispatches C += A·B: the in-place recursion, or alg's table. first:
// C holds nothing yet, and the block runs the standard recursion from its
// root whatever alg names (planMul.std); each tile's first product stores.
func (e *exec) mul(c *sched.Ctx, alg Alg, C, A, B Mat, first bool) {
	if alg == Standard || first {
		e.std(c, C, A, B, first)
		return
	}
	tb := tableOf(alg)
	if tb == nil {
		panic("core: invalid algorithm")
	}
	e.tableMul(c, tb, C, A, B)
}

// par reports whether this level should spawn parallel tasks.
func (e *exec) par(tiles int) bool {
	return tiles > e.serialCutoff
}

// The recursive algorithms poll c.Cancelled() at every level and the
// serial base at every leaf call (one atomic load), so a cancelled run
// abandons its subtree within one leaf call, inside the serial-cutoff
// region too, where the scheduler's between-task and spawn-point checks
// never fire. A leaf call is one tile or, merged (base: one kernel call
// on a canonical square of tiles), up to mergeSide elements a side
// within a base quadrant: SerialCutoff tiles a side in a lone call, a
// wave member's grid (≤ inPlaceSide in place). The
// multi-pass addition stages poll between passes for the same reason:
// near the root a single quadrant pass touches O(n²) elements. What a
// cancelled run leaves partially accumulated is never unpacked into the
// caller's C (GEMMCtx), or C is documented as corrupt (MulPrepacked).

// std is the accumulate form of the standard algorithm: two rounds of
// four independent quadrant products. Within a round the four products
// write disjoint quadrants of C, so they run in parallel; the rounds are
// separated by a sync because both rounds write every C quadrant. At or
// below the serial cutoff the quadrant is one loop (base). first: the
// first round stores, the second accumulates onto it.
func (e *exec) std(c *sched.Ctx, C, A, B Mat, first bool) {
	if c.Cancelled() {
		return
	}
	if !e.par(C.tiles) {
		e.base(c, C, A, B, first)
		return
	}
	c11, c12, c21, c22 := C.quad(layout.QuadNW), C.quad(layout.QuadNE), C.quad(layout.QuadSW), C.quad(layout.QuadSE)
	a11, a12, a21, a22 := A.quad(layout.QuadNW), A.quad(layout.QuadNE), A.quad(layout.QuadSW), A.quad(layout.QuadSE)
	b11, b12, b21, b22 := B.quad(layout.QuadNW), B.quad(layout.QuadNE), B.quad(layout.QuadSW), B.quad(layout.QuadSE)
	c.Parallel(
		func(c *sched.Ctx) { e.std(c, c11, a11, b11, first) },
		func(c *sched.Ctx) { e.std(c, c12, a11, b12, first) },
		func(c *sched.Ctx) { e.std(c, c21, a21, b11, first) },
		func(c *sched.Ctx) { e.std(c, c22, a21, b12, first) },
	)
	c.Parallel(
		func(c *sched.Ctx) { e.std(c, c11, a12, b21, false) },
		func(c *sched.Ctx) { e.std(c, c12, a12, b22, false) },
		func(c *sched.Ctx) { e.std(c, c21, a22, b21, false) },
		func(c *sched.Ctx) { e.std(c, c22, a22, b22, false) },
	)
}

// mergeSide bounds a merged square leaf's side in elements (base): past
// it the A the kernel re-reads per four C columns outgrows L2 (512: 1.8×
// slower).
const mergeSide = 256

// base is the serial base of the standard recursion: the s³ leaf
// products of an s×s-tile quadrant. Every C tile receives its products
// in ascending k, chained from C (first: the kk = 0 products store,
// leaf.Impl.Store), so on a chained kernel (leaf.Impl.Chained) a leaf
// call may merge tiles along each dimension whose operands are
// contiguous across them and keep the bits of the recursion to single
// tiles, on any tile shape. Each operand finds its tiles through its own
// storage (tileAddr), with no quadrant descent. Three forms:
//
//   - a partner narrower than A's tiles (tn < tm) whose B and C are
//     column-major panels (geom.hdrB): one call per row tile and k run
//     over the quadrant's whole width, the run two A tiles where they lie
//     back to back (Z-Morton's lowest level, or a canonical A), else one
//     — unless A is canonical too and its row tile is not whole 16-row
//     blocks: the square below pays the remainder (a fringe, or AVX-512's
//     8-row body at half rate) once per 2^l tiles, the panel per row tile;
//   - otherwise, all three canonical: one call per square of 2^l × 2^l
//     tiles, one strided view, at most mergeSide elements a side;
//   - otherwise one call per tile.
//
// Squares and tiles run in the recursion's order: call t holds one
// (k, i, j) bit triple per level, k most significant — a level's two
// rounds of four; panels run row by row. The kernel, its scratch and the
// tracer are resolved once and the work is accounted once; the fault
// point and the cancellation poll stay per leaf call.
func (e *exec) base(c *sched.Ctx, C, A, B Mat, first bool) {
	d, l := log2tiles(C.tiles), uint(0)
	tm, tn, tk := C.tr, C.tc, A.tc
	canon := e.kernel.Chained && C.ld != 0 && B.ld != 0
	panel := canon && tn < tm && (A.ld == 0 || tm%16 == 0)
	for canon && !panel && A.ld != 0 && l < d && max(tm, tn, tk)<<(l+1) <= mergeSide {
		l++
	}
	C.tr, C.tc, A.tr, A.tc, B.tr, B.tc, d = tm<<l, tn<<l, tm<<l, tk<<l, tk<<l, tn<<l, d-l
	ac, aa, ab := addrOf(C, d), addrOf(A, d), addrOf(B, d)
	ldc, lda, ldb := C.leafLD(), A.leafLD(), B.leafLD()
	acc, store, sc := e.kernel.Scratch, e.kernel.Store, leaf.ScratchAt(c.WorkerSlot())
	tr, wid, flops, calls := e.tr, c.WorkerID(), 0.0, 1<<(3*d)
	if panel { // t walks the (i, kk) tiles row by row, a run's second skipped
		calls = 1 << (2 * d)
	}
	for t := 0; t < calls && !c.Cancelled(); t++ {
		faultinject.Point("core.leaf")
		m, n, k := C.tr, C.tc, A.tc
		var i, j, kk int
		if panel {
			i, kk, n = t>>d, t&(1<<d-1), C.cols()
			if kk+1 < 1<<d && aa.at(i, kk+1) == aa.at(i, kk)+tk*lda {
				k, t = 2*tk, t+1
			}
		} else {
			for l := range d {
				x := t >> (3 * l)
				i, j, kk = i|x>>1&1<<l, j|x&1<<l, kk|x>>2&1<<l
			}
		}
		cd, ad, bd := C.data[ac.at(i, j):], A.data[aa.at(i, kk):], B.data[ab.at(kk, j):]
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if first && kk == 0 {
			store(sc, m, n, k, ad, lda, bd, ldb, cd, ldc)
		} else {
			acc(sc, m, n, k, ad, lda, bd, ldb, cd, ldc)
		}
		if tr != nil {
			tr.Span(wid, obs.KindLeaf, t0, time.Since(t0), 2*int64(m)*int64(n)*int64(k))
		}
		flops += 2 * float64(m) * float64(n) * float64(k)
	}
	c.Account(flops)
}
