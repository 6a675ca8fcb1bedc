package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// This file implements admission control and graceful degradation: the
// driver estimates the memory footprint of a block multiplication
// before allocating anything and, when a budget or numerical-error
// bound is exceeded, walks a degradation ladder toward cheaper, safer
// configurations instead of failing — recording every decision in
// Stats.Degraded. Only when even the smallest rung would bust the
// budget does the call fail, with ErrMemBudget, before any allocation.

// rung is one step of the degradation ladder: an algorithm plus a
// serial flag (serial execution caps the live temporaries at one
// depth-first path and drops the per-worker kernel scratch to a single
// worker's worth).
type rung struct {
	alg    Alg
	serial bool
}

// ladder returns the degradation ladder for a requested algorithm,
// most-capable rung first. A fast algorithm degrades through serial
// Strassen — every level depth-first, the paper's space-conserving
// sequential variant (three reused scratch quadrants per level) —
// before giving up its sub-cubic flop count; a table that is not fast
// (Standard8) has no flop count to keep and goes straight to the
// recursion without temporaries. The final rung is always the standard
// accumulate recursion, which needs no temporaries at all, run serially.
func ladder(a Alg) []rung {
	tb := tableOf(a)
	switch {
	case tb.fast():
		return []rung{{a, false}, {Strassen, true}, {Standard, false}, {Standard, true}}
	case tb != nil:
		return []rung{{a, false}, {Standard, false}, {Standard, true}}
	}
	return []rung{{Standard, false}, {Standard, true}}
}

// charge is what a call holds live, in elements — the terms of the
// admission estimate. A buffer recycled from the pool is exactly as
// resident as a fresh one, so pool hits are charged at full size. Only
// operands owned by a *Prepacked* plan are exempt (segA and segB zero):
// the plan allocated them once, outside the call, and they stay live
// whatever admission decides — charging them again would make a budget
// that admitted the prepack reject the multiplications it was built
// for.
type charge struct {
	// segA and segB are one packed A and one packed B segment of a
	// transient plan (or of operands the caller brings already tiled);
	// plan counts them. When all of them do not fit the budget the block
	// wave walks them in groups that do.
	segA, segB int64
	plan       groups
	// deferA and deferB mark an operand packed by the blocks that multiply
	// it: no plan, a segment riding in perBlock.
	deferA, deferB bool
	// perBlock is one in-flight product tile (for a batched wave, one
	// member's buffers); inflight counts the tiles a parallel rung holds
	// at once — a serial rung holds one.
	perBlock int64
	inflight int
	// scratch is the per-worker leaf packing scratch, arena the
	// per-stack reservation for an algorithm's temporaries on a
	// parallel or a serial rung: exactly the workspace the driver
	// reserves up front (arenaStackElems, one depth-first path's
	// geometric series), so a configuration that admits will not
	// heap-allocate temporaries in steady state.
	scratch int
	arena   func(alg Alg, serial bool) int64
	// what names the call in the rejection error.
	what func() string
}

// groups is how many row panels, k segments and column panels of a
// transient plan are packed — and so live — at once: rows×ks segments
// of A, ks×cols of B.
type groups struct{ rows, ks, cols int }

// held is the packed footprint of one group, in elements.
func (ch *charge) held(g groups) int64 {
	return int64(g.ks) * (ch.segA*int64(g.rows) + ch.segB*int64(g.cols))
}

// fit shrinks the plan's groups, each dimension to no less than one,
// until a group's packed segments fit room elements. The free dimension
// of the larger operand goes first: its panels then stream past the
// smaller operand, which stays packed whole, and no segment is packed
// twice. The other free dimension is next (its operand is re-packed for
// every group of the first), the k chain last: cutting it lands a C
// block's product in several epilogues instead of one.
func (ch *charge) fit(room int64) groups {
	g := ch.plan
	most := func(n int, per, room int64) int {
		if per == 0 { // no plan to cut: resident, or packed by its consumer
			return n
		}
		return int(max(1, min(int64(n), room/per)))
	}
	a, b := int64(g.ks)*ch.segA, int64(g.ks)*ch.segB // one row panel, one column panel
	if a*int64(g.rows) >= b*int64(g.cols) {
		g.rows = most(g.rows, a, room-b*int64(g.cols))
		g.cols = most(g.cols, b, room-a*int64(g.rows))
	} else {
		g.cols = most(g.cols, b, room-a*int64(g.rows))
		g.rows = most(g.rows, a, room-b*int64(g.cols))
	}
	g.ks = most(g.ks, ch.held(groups{g.rows, 1, g.cols}), room)
	return g
}

// estimate returns the footprint in bytes of the charge on rung r —
// one arena stack and one scratch per worker, or one of each when
// serial — and the groups the plan is walked in: the whole plan, or the
// largest groups that keep the estimate inside a positive budget.
func (ch *charge) estimate(r rung, workers int, budget int64) (int64, groups) {
	inf, stacks := int64(ch.inflight), int64(workers)
	if r.serial {
		inf, stacks = 1, 1
	}
	base := ch.perBlock*inf + (ch.arena(r.alg, r.serial)+int64(ch.scratch))*stacks
	g := ch.plan
	if held := ch.held(g); budget > 0 && held > 0 && 8*(base+held) > budget {
		g = ch.fit(budget/8 - base)
	}
	return 8 * (base + ch.held(g)), g
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// admission is admit's verdict: the rung that runs, its estimate, the
// groups the wave packs the plan in, and a human-readable note per
// degradation.
type admission struct {
	alg    Alg
	serial bool
	est    int64
	groups
	notes []string
}

// admit applies the memory budget, once per call: it returns the first
// rung of the requested algorithm's ladder whose estimated footprint
// fits o.MemBudget (the requested configuration when no budget is
// set). Walking a transient plan in groups costs no flops, so a rung
// shrinks its groups before the ladder gives up an algorithm. A batched wave degrades together — mixed
// algorithms would defeat the shared arena sizing. When no rung fits,
// the call is rejected with ErrMemBudget before any allocation.
func admit(o Options, workers int, ch charge) (admission, error) {
	var ad admission
	var prev rung
	var prevEst int64
	for i, r := range ladder(o.Alg) {
		est, g := ch.estimate(r, workers, o.MemBudget)
		if i > 0 {
			ad.notes = append(ad.notes, fmt.Sprintf("mem-budget: %v%s estimated %s > budget %s; degraded to %v%s (estimated %s)",
				prev.alg, serialTag(prev.serial), fmtBytes(prevEst), fmtBytes(o.MemBudget),
				r.alg, serialTag(r.serial), fmtBytes(est)))
		}
		if o.MemBudget <= 0 || est <= o.MemBudget {
			if g != ch.plan {
				ad.notes = append(ad.notes, fmt.Sprintf("mem-budget: the plan's %dx%dx%d packed segments exceed budget %s; walking them %dx%dx%d at a time (estimated %s)",
					ch.plan.rows, ch.plan.ks, ch.plan.cols, fmtBytes(o.MemBudget), g.rows, g.ks, g.cols, fmtBytes(est)))
			}
			ad.alg, ad.serial, ad.est, ad.groups = r.alg, r.serial, est, g
			return ad, nil
		}
		prev, prevEst = r, est
	}
	return admission{}, fmt.Errorf("%w: smallest ladder rung (%v%s) estimated %s for %s still exceeds budget %s",
		ErrMemBudget, prev.alg, serialTag(prev.serial), fmtBytes(prevEst), ch.what(), fmtBytes(o.MemBudget))
}

func serialTag(serial bool) string {
	if serial {
		return " (serial)"
	}
	return ""
}

// probeSize is the edge of the probe block used by the residual-growth
// check: big enough for three levels of fast recursion to manifest
// their error growth, small enough (2·32³ ≈ 65K flops per run) to be
// negligible next to the real multiplication.
const probeSize = 32

// probeResidualGrowth runs the chosen fast algorithm and the naive
// reference over a small probe block sampled from the top-left corner
// of op(A) and op(B), and returns the max-norm residual in units of the
// standard algorithm's error floor (machine epsilon × inner dimension ×
// |A|∞·|B|∞ of the probe). A value near 1 means the fast algorithm is
// behaving like the standard one on this data; Strassen-like error
// growth shows up as values of 10–100+. Returns 0 (never degrade) when
// the probe is degenerate (zero operands).
func probeResidualGrowth(e *exec, alg Alg, transA, transB bool, Av, Bv *matrix.Dense) float64 {
	// The probe grid: 4×4 tiles covering probeSize, two fast levels.
	const grid, t = 4, probeSize / 4
	pm, pk := opShape(Av, transA)
	pk2, pn := opShape(Bv, transB)
	pm, pk, pn = min(pm, probeSize), min(pk, pk2, probeSize), min(pn, probeSize)
	pa, amax := sampleProbe(Av, transA, pm, pk)
	pb, bmax := sampleProbe(Bv, transB, pk, pn)
	scale := 2.220446049250313e-16 * float64(pk) * amax * bmax
	if scale == 0 {
		return 0
	}
	fast := matrix.New(probeSize, probeSize)
	ref := matrix.New(probeSize, probeSize)
	mk := func(x *matrix.Dense) Mat {
		return Mat{data: x.Data, tiles: grid, tr: t, tc: t, ld: x.Stride, curve: layout.ColMajor}
	}
	// Serial execution on an unbound Ctx: the recursion never spawns
	// (serialCutoff ≥ tiles) so no pool is needed, and the probe runs
	// with the same leaf kernel the real multiplication will use.
	pe := &exec{kernel: e.kernel, serialCutoff: noSpawn, fastCutoff: 1}
	pe.mul(&sched.Ctx{}, alg, mk(fast), mk(pa), mk(pb))
	matrix.RefGEMM(false, false, 1, pa, pb, 0, ref)
	return matrix.MaxAbsDiff(fast, ref) / scale
}

func opShape(x *matrix.Dense, trans bool) (rows, cols int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// sampleProbe copies the top-left rows×cols corner of op(src) into a
// zero-padded probeSize×probeSize matrix and returns it with the
// sample's max absolute value.
func sampleProbe(src *matrix.Dense, trans bool, rows, cols int) (*matrix.Dense, float64) {
	dst := matrix.New(probeSize, probeSize)
	var amax float64
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			var v float64
			if trans {
				v = src.Data[i*src.Stride+j]
			} else {
				v = src.Data[j*src.Stride+i]
			}
			dst.Data[j*dst.Stride+i] = v
			if v < 0 {
				v = -v
			}
			if v > amax {
				amax = v
			}
		}
	}
	return dst, amax
}
