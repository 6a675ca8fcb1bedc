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
	// three ids below are the first entries of the table registry
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
	// StrassenLowMem is the space-conserving sequential Strassen variant
	// Section 5 mentions: pre- and post-additions interspersed with the
	// recursive calls, reusing three scratch quadrants per level. It
	// exposes no parallelism.
	StrassenLowMem
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
// ⟨m,k,n⟩ family in registration order — the paper's four first. Command-line
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
// auto-selection (AlgAuto).
func ParseAlg(s string) (Alg, error) {
	if s == "auto" {
		return AlgAuto, nil
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
	// scratch-aware form the leaf call routes its packing buffers through
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
	// is off) and lane is the call's caller-side trace track; both are
	// used only by the runner's phase spans, never by the recursion.
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
// geometry, e.g. dst += a. Orientation mismatches between tiled operands
// are resolved through resolveTileMap; when the orientations coincide
// the whole region is one contiguous stream and f runs once over it —
// the "streaming through the memory hierarchy" case Section 4
// highlights. Canonical operands are walked column by column. A large
// pass is chunked over the pool (ewPar), so the top-level addition
// streams — O(n²) work on the critical path — do not run single-threaded
// per node. Accounting stays with the caller (accountAdd).
func (e *exec) ew2(c *sched.Ctx, dst, a Mat, f func(dst, a []float64)) {
	checkEW(dst, a)
	par := e.ewPar(c, dst)
	switch {
	case !dst.tiledStore() && !par:
		ew2Cols(dst, a, 0, dst.cols(), f)
	case !dst.tiledStore():
		chunked(c, 0, dst.cols(), func(lo, hi int) { ew2Cols(dst, a, lo, hi, f) })
	case !par:
		ew2Tiles(dst, a, resolveTileMap(dst, a), 0, dst.tiles*dst.tiles, f)
	default:
		m := resolveTileMap(dst, a)
		chunked(c, 0, dst.tiles*dst.tiles, func(lo, hi int) { ew2Tiles(dst, a, m, lo, hi, f) })
	}
}

// ew3 is the three-operand counterpart of ew2, e.g. dst = a + b.
func (e *exec) ew3(c *sched.Ctx, dst, a, b Mat, f func(dst, a, b []float64)) {
	checkEW(dst, a, b)
	par := e.ewPar(c, dst)
	switch {
	case !dst.tiledStore() && !par:
		ew3Cols(dst, a, b, 0, dst.cols(), f)
	case !dst.tiledStore():
		chunked(c, 0, dst.cols(), func(lo, hi int) { ew3Cols(dst, a, b, lo, hi, f) })
	case !par:
		ew3Tiles(dst, a, b, resolveTileMap(dst, a), resolveTileMap(dst, b), 0, dst.tiles*dst.tiles, f)
	default:
		ma, mb := resolveTileMap(dst, a), resolveTileMap(dst, b)
		chunked(c, 0, dst.tiles*dst.tiles, func(lo, hi int) { ew3Tiles(dst, a, b, ma, mb, lo, hi, f) })
	}
}

// leafMul runs the leaf kernel on a single tile trio and accounts its
// flops toward the work/span instrumentation. The fault-injection point
// costs one atomic load when injection is off — negligible against the
// 2mnk flops of the kernel.
func (e *exec) leafMul(c *sched.Ctx, C, A, B Mat) {
	faultinject.Point("core.leaf")
	m, n, k := C.tr, C.tc, A.tc
	// The tracepoint costs one atomic load when tracing is off; the
	// span's arg carries the leaf's flop count.
	tr := obs.Cur()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if skern := e.kernel.Scratch; skern != nil {
		skern(leaf.ScratchAt(c.WorkerSlot()), m, n, k,
			A.data, A.leafLD(), B.data, B.leafLD(), C.data, C.leafLD())
	} else {
		e.kernel.Kern(m, n, k, A.data, A.leafLD(), B.data, B.leafLD(), C.data, C.leafLD())
	}
	c.Account(2 * float64(m) * float64(n) * float64(k))
	if tr != nil {
		tr.Span(c.WorkerID(), obs.KindLeaf, t0, time.Since(t0),
			2*int64(m)*int64(n)*int64(k))
	}
}

// accountAdd records the work of one quadrant-sized element-wise pass.
func accountAdd(c *sched.Ctx, m Mat) {
	c.Account(float64(m.elems()))
}

// mul dispatches C += A·B: the in-place recursion, or alg's table.
func (e *exec) mul(c *sched.Ctx, alg Alg, C, A, B Mat) {
	if alg == Standard {
		e.std(c, C, A, B)
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

// The recursive algorithms poll c.Cancelled() at every level (one
// atomic load), so a cancelled run abandons its subtree within roughly
// one leaf multiplication — the per-level check is what bounds the
// cancellation latency inside the serial-cutoff region, where the
// scheduler's between-task and spawn-point checks never fire. The
// multi-pass addition stages poll between passes (ewCancelled) for the
// same reason: near the root a single quadrant pass touches O(n²)
// elements, which would otherwise dominate the abort latency.

// ewCancelled is the between-passes poll of the addition stages. The
// partially accumulated state it can leave behind is safe: on a
// cancelled run the driver never unpacks the working copy into the
// caller's C (GEMMCtx), or documents C as corrupt (MulTiled).
func ewCancelled(c *sched.Ctx) bool { return c.Cancelled() }

// std is the accumulate form of the standard algorithm: two rounds of
// four independent quadrant products. Within a round the four products
// write disjoint quadrants of C, so they run in parallel; the rounds are
// separated by a sync because both rounds write every C quadrant.
func (e *exec) std(c *sched.Ctx, C, A, B Mat) {
	if c.Cancelled() {
		return
	}
	if C.tiles == 1 {
		e.leafMul(c, C, A, B)
		return
	}
	c11, c12, c21, c22 := C.quad(layout.QuadNW), C.quad(layout.QuadNE), C.quad(layout.QuadSW), C.quad(layout.QuadSE)
	a11, a12, a21, a22 := A.quad(layout.QuadNW), A.quad(layout.QuadNE), A.quad(layout.QuadSW), A.quad(layout.QuadSE)
	b11, b12, b21, b22 := B.quad(layout.QuadNW), B.quad(layout.QuadNE), B.quad(layout.QuadSW), B.quad(layout.QuadSE)
	if e.par(C.tiles) {
		c.Parallel(
			func(c *sched.Ctx) { e.std(c, c11, a11, b11) },
			func(c *sched.Ctx) { e.std(c, c12, a11, b12) },
			func(c *sched.Ctx) { e.std(c, c21, a21, b11) },
			func(c *sched.Ctx) { e.std(c, c22, a21, b12) },
		)
		c.Parallel(
			func(c *sched.Ctx) { e.std(c, c11, a12, b21) },
			func(c *sched.Ctx) { e.std(c, c12, a12, b22) },
			func(c *sched.Ctx) { e.std(c, c21, a22, b21) },
			func(c *sched.Ctx) { e.std(c, c22, a22, b22) },
		)
		return
	}
	e.std(c, c11, a11, b11)
	e.std(c, c12, a11, b12)
	e.std(c, c21, a21, b11)
	e.std(c, c22, a21, b12)
	e.std(c, c11, a12, b21)
	e.std(c, c12, a12, b22)
	e.std(c, c21, a22, b21)
	e.std(c, c22, a22, b22)
}
