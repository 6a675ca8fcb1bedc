package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/leaf"
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
// operands owned by a *Prepacked* plan are exempt: the plan allocated
// them once, outside the call, and they stay live whatever admission
// decides — charging them again would make a budget that admitted the
// prepack reject the multiplications it was built for.
type charge struct {
	// alg is the algorithm the charge prices, whose ladder admit walks.
	alg Alg
	// held is the packed segments the call holds at once: its transient
	// plans, all of which it packs itself; moved to its consumers
	// (Prepacked.mat), they cost consume per product tile in flight
	// instead — one A and one B segment.
	held, consume int64
	// deferA and deferB mark an operand packed by the blocks that multiply
	// it: no plan, a segment riding in perBlock.
	deferA, deferB bool
	// perBlock is one in-flight product tile (in a wave of several, one
	// member's buffers; none when C is a plan); inflight counts those a
	// parallel rung holds.
	perBlock int64
	inflight int
	// scratch is the per-worker leaf packing scratch, arena the
	// per-stack reservation for the algorithm's temporaries on each rung
	// of its ladder: exactly the workspace the driver reserves up front
	// (arenaStackElems, one depth-first path's geometric series), so a
	// configuration that admits will not heap-allocate temporaries in
	// steady state.
	scratch int
	arena   [4]int64 // by rung, in ladder order
	// what names the call in the rejection error.
	what func() string
}

// estimate returns the footprint in bytes of the charge on rung r,
// whose arena stacks take arena elements each — one arena stack and one
// scratch per worker, or one of each when serial — with the segments the
// call packs held in its plans or, consumed, packed by their consumers.
func (ch *charge) estimate(r rung, arena int64, workers int, consumed bool) int64 {
	inf, stacks := int64(ch.inflight), int64(workers)
	if r.serial {
		inf, stacks = 1, 1
	}
	per, held := ch.perBlock, ch.held
	if consumed {
		per, held = per+ch.consume, 0
	}
	return 8 * (per*inf + held + (arena+int64(ch.scratch))*stacks)
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

// admission is admit's verdict: the rung that runs, its estimate and
// per-stack arena, whether the blocks pack the segments the call packs
// (consumed), and a human-readable note per degradation.
type admission struct {
	alg              Alg
	serial, consumed bool
	est, arena       int64
	notes            []string
}

// admit applies the memory budget, once per run (a wave degrades
// together): it returns the first rung of the charge's algorithm's
// ladder whose estimated footprint fits o.MemBudget (the requested
// configuration when no budget is set). A rung whose transient plans do
// not fit is priced once more with their segments packed by the blocks
// that multiply them — the same flops, the same bits — before the ladder
// gives up an algorithm. When no rung fits, the run is rejected with
// ErrMemBudget before any allocation.
func admit(o Options, workers int, ch charge) (admission, error) {
	var ad admission
	var prev rung
	var prevEst int64
	for i, r := range ladder(ch.alg) {
		est := ch.estimate(r, ch.arena[i], workers, false)
		if i > 0 {
			ad.notes = append(ad.notes, fmt.Sprintf("mem-budget: %v%s estimated %s > budget %s; degraded to %v%s (estimated %s)",
				prev.alg, serialTag(prev.serial), fmtBytes(prevEst), fmtBytes(o.MemBudget),
				r.alg, serialTag(r.serial), fmtBytes(est)))
		}
		whole, consumed := est, o.MemBudget > 0 && est > o.MemBudget && ch.held > 0
		if consumed {
			est = ch.estimate(r, ch.arena[i], workers, true)
		}
		if o.MemBudget <= 0 || est <= o.MemBudget {
			if consumed {
				ad.notes = append(ad.notes, fmt.Sprintf("mem-budget: %v%s with its packed segments estimated %s > budget %s; its blocks pack them (estimated %s)",
					r.alg, serialTag(r.serial), fmtBytes(whole), fmtBytes(o.MemBudget), fmtBytes(est)))
			}
			ad.alg, ad.serial, ad.consumed, ad.est, ad.arena = r.alg, r.serial, consumed, est, ch.arena[i]
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
func probeResidualGrowth(kernel leaf.Impl, alg Alg, transA, transB bool, Av, Bv *matrix.Dense) float64 {
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
	pe := &exec{kernel: kernel, serialCutoff: noSpawn, fastCutoff: 1}
	pe.mul(&sched.Ctx{}, alg, mk(fast), mk(pa), mk(pb), false)
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
	if trans {
		src = src.View(0, 0, cols, rows).Transpose()
	}
	dst := matrix.New(probeSize, probeSize)
	dst.View(0, 0, rows, cols).CopyFrom(src.View(0, 0, rows, cols))
	return dst, dst.MaxAbs()
}
