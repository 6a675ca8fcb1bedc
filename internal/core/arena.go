package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file implements the hierarchical scratch arena: one contiguous
// workspace reserved per block multiplication, pre-sized from the same
// recursion-shaped footprint math the admission estimator uses, and
// served to the recursive algorithms through per-worker LIFO stacks.
//
// Why a stack per worker is correct: the scheduler is help-first. A
// frame that reaches a sync point never migrates — it keeps executing
// (its own children, or stolen tasks) on the same worker goroutine, and
// every stolen task runs to completion on the thief's call stack before
// the suspended frame underneath resumes. Temporary lifetimes therefore
// nest exactly like the call stack of the worker that allocated them,
// so mark/release per frame on a worker-private stack reclaims them in
// LIFO order with no synchronization at all.
//
// Why the per-stack size is one depth-first path: a worker descends one
// recursion path at a time, so the temporaries live on its stack at any
// moment are (in steady state) those of one root-to-leaf path —
// Σ_levels own(t), the same geometric series estimateBytes charges per
// worker. Help-first stealing can violate this bound transiently: a
// worker suspended deep in one subtree may steal a shallow task from
// another subtree and stack a second partial path on top. That case is
// handled by falling back to the heap for the overflow (counted in
// Stats.AllocBytes), never by failing — the arena is an optimization,
// not a correctness boundary.

// arenaStack is one worker's LIFO allocation region inside the arena
// buffer. Only the owning worker moves top, so the fields need no
// locking; the padding keeps neighboring stacks off one cache line.
type arenaStack struct {
	top   int // next free element (absolute index into buf)
	limit int // one past the last element of this stack's segment
	_     [112]byte
}

// arena is the pre-reserved scratch workspace of one multiplication
// run. A nil *arena is valid everywhere and means "heap-allocate every
// temporary" — the probe path and the Standard algorithm use it.
type arena struct {
	buf    []float64
	stacks []arenaStack
	// fallbackAllocs/fallbackElems count newTemp requests that missed
	// the arena (stack exhausted under cross-subtree stealing, or an
	// oversized request). Read into Stats.AllocBytes after the run.
	fallbackAllocs atomic.Int64
	fallbackElems  atomic.Int64
}

// bytes returns the reserved workspace size.
func (a *arena) bytes() int64 {
	if a == nil {
		return 0
	}
	return 8 * int64(len(a.buf))
}

// stackIndex maps the executing worker to its stack. Serial runs carry
// a single stack regardless of which worker executes the one live task
// (and regardless of whether the Ctx is bound to a pool at all).
func (a *arena) stackIndex(c *sched.Ctx) int {
	i := c.WorkerID()
	if i < 0 || i >= len(a.stacks) {
		return 0
	}
	return i
}

// mark records the executing worker's stack position at frame entry.
// Pair it with a deferred release so cancellation early-returns and
// panic unwinding reclaim the frame's temporaries too.
func (a *arena) mark(c *sched.Ctx) (stack, top int) {
	if a == nil {
		return 0, 0
	}
	i := a.stackIndex(c)
	return i, a.stacks[i].top
}

// release pops every allocation made on stack since the paired mark.
// Heap-fallback temporaries interleaved with arena ones are simply left
// to the garbage collector.
func (a *arena) release(stack, top int) {
	if a == nil {
		return
	}
	a.stacks[stack].top = top
}

// alloc carves n elements off the executing worker's stack, or returns
// nil when the stack cannot hold them (the caller heap-allocates). The
// returned memory is dirty: product temporaries must be zeroed by the
// caller before accumulating into them.
func (a *arena) alloc(c *sched.Ctx, n int) []float64 {
	if a == nil {
		return nil
	}
	s := &a.stacks[a.stackIndex(c)]
	if s.limit-s.top < n {
		return nil
	}
	b := a.buf[s.top : s.top+n : s.top+n]
	s.top += n
	return b
}

// newTemp allocates a scratch Mat with the same geometry as proto, from
// the executing worker's arena stack when it fits and from the heap
// otherwise (always, with a nil arena). For tiled storage the temp
// adopts the reference orientation, which is always legal because every
// element-wise op resolves orientation differences explicitly. For
// canonical storage the temp is contiguous, so its leading dimension
// equals its row count — the leading-dimension halving that Section 5.1
// identifies as the reason the fast algorithms are robust on canonical
// layouts. Arena memory is NOT zeroed — callers that accumulate into the
// temp (product temporaries) must matZero it first; temps that are
// fully overwritten (pre-addition operands) may skip that.
func (e *exec) newTemp(c *sched.Ctx, proto Mat) Mat {
	t := proto
	if proto.tiledStore() {
		t.orient = layout.OrientID
	} else {
		t.ld = proto.rows()
	}
	n := proto.elems()
	if b := e.ar.alloc(c, n); b != nil {
		t.data = b
		return t
	}
	faultinject.Alloc("core.newTemp")
	if e.ar != nil {
		e.ar.fallbackAllocs.Add(1)
		e.ar.fallbackElems.Add(int64(n))
		if tr := obs.Cur(); tr != nil {
			tr.Instant(c.WorkerID(), obs.KindArenaFallback, 8*int64(n))
		}
	}
	t.data = make([]float64, n)
	return t
}

// arenaStackElems returns the number of scratch elements one worker's
// depth-first path through alg needs, descending from a side×side tile
// grid down to the leaves: Σ_levels own(level), where own is the storage
// the algorithm allocates at that level:
//
//   - Standard: no temporaries.
//   - A table: the levels tableMul executes — down to fastCutoff, where
//     it hands off to the temporary-free standard recursion (Standard8,
//     whose plan has no cutoff, to single tiles). A level is charged the
//     evaluation schedule's aux blocks plus its BFS bound — preA
//     A-shaped and preB B-shaped operands and R products: 5+5+7 for
//     Strassen, 4+4 aux and 7+2 for Winograd, the 8 products alone for
//     Standard8, whose operand rows alias the blocks — whose DFS levels
//     below the serial cutoff use strictly less; a depthFirst table is
//     charged the DFS bound, one S-, T- and P-shaped scratch
//     (StrassenLowMem's signature qa+qb+qc).
//
// This function is the single source of truth for both the admission
// estimate and the arena reservation, so the MemBudget ladder accounts
// the arena up front — one reservation, not per-level guesses.
func arenaStackElems(alg Alg, side, tm, tk, tn, fastCutoff int) (need int64) {
	tb := tableOf(alg)
	if tb == nil {
		return 0
	}
	for ; side > max(fastCutoff, 1); side /= 2 {
		q := int64(side/2) * int64(side/2)
		qa, qb, qc := q*int64(tm)*int64(tk), q*int64(tk)*int64(tn), q*int64(tm)*int64(tn)
		na, nb, nc := tb.preA, tb.preB, tb.R
		if tb.depthFirst {
			na, nb, nc = min(na, 1), min(nb, 1), 1
		}
		need += int64(na+len(tb.AuxU))*qa + int64(nb+len(tb.AuxV))*qb + int64(nc+len(tb.AuxW))*qc
	}
	return need
}

// arenaPool recycles arena buffers across runs. Checked-out arenas keep
// their (monotonically grown) buffer, so steady-state repeated
// multiplications of the same shape reuse one allocation.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// maxArenaElems caps the up-front reservation at 64 GiB of float64s;
// beyond it acquireArenaElems declines and every temporary heap-allocates
// incrementally, which at that scale is the less catastrophic failure
// mode (and MemBudget admission will normally have refused far
// earlier).
const maxArenaElems = int64(1) << 33

// acquireArenaElems reserves the workspace of a call or a batched wave:
// stacks × per elements in one contiguous buffer, per being what
// admission charged (charge.arena: arenaStackElems of the geometry, for
// a wave the maximum over its members' — possibly heterogeneous —
// geometries). stacks should be the pool's worker count, or 1 for
// serial execution (a serial run has exactly one live task, so every
// frame maps to stack 0). Returns nil when the algorithm needs no
// temporaries or the reservation would be absurd; the run then
// heap-allocates as before. A worker interleaving frames of two wave
// members under help-first stealing can transiently exceed its stack,
// exactly like cross-subtree stealing in a single call; the heap
// fallback absorbs it.
func acquireArenaElems(per int64, stacks int) *arena {
	if per <= 0 {
		return nil
	}
	stacks = max(stacks, 1)
	total := per * int64(stacks)
	if total > maxArenaElems {
		return nil
	}
	// The reservation is the run's one up-front allocation — the
	// injection site that models workspace OOM (see internal/faultinject).
	faultinject.Alloc("core.arena")
	a := arenaPool.Get().(*arena)
	if int64(cap(a.buf)) < total {
		a.buf = make([]float64, total)
	}
	a.buf = a.buf[:total]
	if cap(a.stacks) < stacks {
		a.stacks = make([]arenaStack, stacks)
	}
	a.stacks = a.stacks[:stacks]
	for i := range a.stacks {
		base := i * int(per)
		a.stacks[i] = arenaStack{top: base, limit: base + int(per)}
	}
	a.fallbackAllocs.Store(0)
	a.fallbackElems.Store(0)
	return a
}

// releaseArena returns the workspace to the recycling pool. Callers
// must not release while tasks of the run may still allocate — in the
// driver this is after call.run has returned, which waits out even
// cancelled runs.
func releaseArena(a *arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}
