package core

import (
	"fmt"
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
	// It trades temporary storage for a shorter critical path.
	Standard8
	// Strassen is Strassen's algorithm (Figure 1(b)): 7 recursive
	// products, 18 additions/subtractions. It and the two ids below are
	// the first entries of the table registry (table.go): the engine in
	// tablemul.go runs them from their ⟨2,2,2⟩ coefficient tables.
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

var algNames = [...]string{"standard", "standard8"}

func (a Alg) String() string {
	if int(a) < len(algNames) {
		return algNames[a]
	}
	if tb := tableOf(a); tb != nil {
		return tb.Name
	}
	if a == AlgAuto {
		return "auto"
	}
	return fmt.Sprintf("Alg(%d)", uint8(a))
}

// Algs lists the algorithms in paper order, followed by the
// table-driven ⟨m,k,n⟩ family in registration order. Command-line
// tools derive their -alg help text from it (via AlgNames), so a newly
// registered table shows up everywhere without touching the tools.
var Algs = append([]Alg{Standard, Standard8}, tableAlgs...)

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
	return 0, fmt.Errorf("core: unknown algorithm %q (valid: %s)", s, joinNames())
}

func joinNames() string {
	out := ""
	for i, n := range AlgNames() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
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
	// ewMin: element-wise passes over at least this many elements are
	// split across the pool (exec.ew2/ew3); 0 disables the splitting.
	ewMin int
	// tr is the tracer captured at driver-call entry (nil when tracing
	// is off) and lane is the call's caller-side trace track; both are
	// used only by the driver-phase spans, never by the recursion.
	tr   *obs.Tracer
	lane int32
}

// ewParMin is the default exec.ewMin: below half a megabyte the
// chunking overhead (closures, task headers, steal traffic) outweighs a
// memory-bound stream's cost.
const ewParMin = 1 << 16

// ewChunks is the fan-out of one parallelized element-wise pass.
func ewChunks(workers, n int) int {
	chunks := workers * 2
	if chunks > n {
		chunks = n
	}
	return chunks
}

// ew2 is matEW2 with pool-parallel chunking: a large pass at a level
// whose parent still spawns (tiles·2 above the serial cutoff) is split
// into ranged chunks executed through c.Parallel, so the top-level
// addition streams — O(n²) work on the critical path — no longer run
// single-threaded per node. Small passes, serial(-degraded) runs, and
// frames not bound to a pool worker take the plain streaming path.
// Chunks honor cancellation through the scheduler's between-task check.
// Accounting stays with the caller (accountAdd), identical to the
// serial form.
func (e *exec) ew2(c *sched.Ctx, dst, a Mat, f func(dst, a []float64)) {
	if !e.par(dst.tiles*2) || e.ewMin <= 0 || dst.elems() < e.ewMin ||
		c.Workers() < 2 || c.WorkerID() < 0 {
		matEW2(dst, a, f)
		return
	}
	checkEW(dst, a)
	if dst.tiledStore() {
		m := resolveTileMap(dst, a)
		nt := dst.tiles * dst.tiles
		chunks := ewChunks(c.Workers(), nt)
		fns := make([]func(*sched.Ctx), chunks)
		for i := 0; i < chunks; i++ {
			lo, hi := nt*i/chunks, nt*(i+1)/chunks
			fns[i] = func(*sched.Ctx) { ew2Tiles(dst, a, m, lo, hi, f) }
		}
		c.Parallel(fns...)
		return
	}
	cols := dst.cols()
	chunks := ewChunks(c.Workers(), cols)
	fns := make([]func(*sched.Ctx), chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := cols*i/chunks, cols*(i+1)/chunks
		fns[i] = func(*sched.Ctx) { ew2Cols(dst, a, lo, hi, f) }
	}
	c.Parallel(fns...)
}

// ew3 is the three-operand counterpart of ew2.
func (e *exec) ew3(c *sched.Ctx, dst, a, b Mat, f func(dst, a, b []float64)) {
	if !e.par(dst.tiles*2) || e.ewMin <= 0 || dst.elems() < e.ewMin ||
		c.Workers() < 2 || c.WorkerID() < 0 {
		matEW3(dst, a, b, f)
		return
	}
	checkEW(dst, a, b)
	if dst.tiledStore() {
		ma, mb := resolveTileMap(dst, a), resolveTileMap(dst, b)
		nt := dst.tiles * dst.tiles
		chunks := ewChunks(c.Workers(), nt)
		fns := make([]func(*sched.Ctx), chunks)
		for i := 0; i < chunks; i++ {
			lo, hi := nt*i/chunks, nt*(i+1)/chunks
			fns[i] = func(*sched.Ctx) { ew3Tiles(dst, a, b, ma, mb, lo, hi, f) }
		}
		c.Parallel(fns...)
		return
	}
	cols := dst.cols()
	chunks := ewChunks(c.Workers(), cols)
	fns := make([]func(*sched.Ctx), chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := cols*i/chunks, cols*(i+1)/chunks
		fns[i] = func(*sched.Ctx) { ew3Cols(dst, a, b, lo, hi, f) }
	}
	c.Parallel(fns...)
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

// mul dispatches C += A·B to the requested algorithm.
func (e *exec) mul(c *sched.Ctx, alg Alg, C, A, B Mat) {
	switch alg {
	case Standard:
		e.std(c, C, A, B)
	case Standard8:
		e.std8(c, C, A, B)
	default:
		if tb := tableOf(alg); tb != nil {
			e.tableMul(c, tb, C, A, B)
			return
		}
		panic("core: invalid algorithm")
	}
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

// std8 is the Figure 1(a) form: eight products into temporaries P1..P8
// spawned together, then four parallel post-addition pairs. The critical
// path recurrence is T∞(s) = T∞(s/2) + O(adds), which is what gives the
// standard algorithm its O(lg² n) critical path in the paper.
func (e *exec) std8(c *sched.Ctx, C, A, B Mat) {
	if c.Cancelled() {
		return
	}
	if C.tiles == 1 {
		e.leafMul(c, C, A, B)
		return
	}
	if !e.par(C.tiles) {
		// The serial region lives in its own closure-free function:
		// escape analysis would otherwise heap-allocate the temp array
		// of every frame just because the (untaken) parallel branch
		// captures it. par is monotone down the recursion, so the
		// serial variant never needs to spawn.
		e.std8Serial(c, C, A, B)
		return
	}
	c11, c12, c21, c22 := C.quad(layout.QuadNW), C.quad(layout.QuadNE), C.quad(layout.QuadSW), C.quad(layout.QuadSE)
	a11, a12, a21, a22 := A.quad(layout.QuadNW), A.quad(layout.QuadNE), A.quad(layout.QuadSW), A.quad(layout.QuadSE)
	b11, b12, b21, b22 := B.quad(layout.QuadNW), B.quad(layout.QuadNE), B.quad(layout.QuadSW), B.quad(layout.QuadSE)
	st, top := e.ar.mark(c)
	defer e.ar.release(st, top)
	var p [8]Mat
	for i := range p {
		// Near the root each temp is a quarter of C; poll so a cancel
		// arriving mid-allocation doesn't wait out the whole series.
		if c.Cancelled() {
			return
		}
		p[i] = e.newTemp(c, c11)
	}
	// Arena memory is dirty; each product zeroes its destination
	// inside its own task (a parallel memset for free) before the
	// accumulate recursion.
	c.Parallel(
		func(c *sched.Ctx) { matZero(p[0]); e.std8(c, p[0], a11, b11) },
		func(c *sched.Ctx) { matZero(p[1]); e.std8(c, p[1], a12, b21) },
		func(c *sched.Ctx) { matZero(p[2]); e.std8(c, p[2], a21, b11) },
		func(c *sched.Ctx) { matZero(p[3]); e.std8(c, p[3], a22, b21) },
		func(c *sched.Ctx) { matZero(p[4]); e.std8(c, p[4], a11, b12) },
		func(c *sched.Ctx) { matZero(p[5]); e.std8(c, p[5], a12, b22) },
		func(c *sched.Ctx) { matZero(p[6]); e.std8(c, p[6], a21, b12) },
		func(c *sched.Ctx) { matZero(p[7]); e.std8(c, p[7], a22, b22) },
	)
	c.Parallel(
		func(c *sched.Ctx) {
			e.ew2(c, c11, p[0], vAcc)
			if ewCancelled(c) {
				return
			}
			e.ew2(c, c11, p[1], vAcc)
			accountAdd(c, c11)
			accountAdd(c, c11)
		},
		func(c *sched.Ctx) {
			e.ew2(c, c21, p[2], vAcc)
			if ewCancelled(c) {
				return
			}
			e.ew2(c, c21, p[3], vAcc)
			accountAdd(c, c21)
			accountAdd(c, c21)
		},
		func(c *sched.Ctx) {
			e.ew2(c, c12, p[4], vAcc)
			if ewCancelled(c) {
				return
			}
			e.ew2(c, c12, p[5], vAcc)
			accountAdd(c, c12)
			accountAdd(c, c12)
		},
		func(c *sched.Ctx) {
			e.ew2(c, c22, p[6], vAcc)
			if ewCancelled(c) {
				return
			}
			e.ew2(c, c22, p[7], vAcc)
			accountAdd(c, c22)
			accountAdd(c, c22)
		},
	)
}

// std8Serial is std8 below the serial cutoff: straight-line and
// closure-free, so the in-frame recursion allocates nothing at all.
func (e *exec) std8Serial(c *sched.Ctx, C, A, B Mat) {
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
	st, top := e.ar.mark(c)
	defer e.ar.release(st, top)
	var p [8]Mat
	for i := range p {
		if c.Cancelled() {
			return
		}
		p[i] = e.newTemp(c, c11)
	}
	matZero(p[0])
	e.std8Serial(c, p[0], a11, b11)
	matZero(p[1])
	e.std8Serial(c, p[1], a12, b21)
	matZero(p[2])
	e.std8Serial(c, p[2], a21, b11)
	matZero(p[3])
	e.std8Serial(c, p[3], a22, b21)
	matZero(p[4])
	e.std8Serial(c, p[4], a11, b12)
	matZero(p[5])
	e.std8Serial(c, p[5], a12, b22)
	matZero(p[6])
	e.std8Serial(c, p[6], a21, b12)
	matZero(p[7])
	e.std8Serial(c, p[7], a22, b22)
	if ewCancelled(c) {
		return
	}
	matEW2(c11, p[0], vAcc)
	matEW2(c11, p[1], vAcc)
	matEW2(c21, p[2], vAcc)
	matEW2(c21, p[3], vAcc)
	if ewCancelled(c) {
		return
	}
	matEW2(c12, p[4], vAcc)
	matEW2(c12, p[5], vAcc)
	matEW2(c22, p[6], vAcc)
	matEW2(c22, p[7], vAcc)
	for i := 0; i < 8; i++ {
		accountAdd(c, c11)
	}
}
