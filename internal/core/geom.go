package core

import (
	"repro/internal/leaf"
	"repro/internal/tile"
)

// This file chooses the recursion geometry for the table-driven
// ⟨m,k,n⟩ algorithms, and resolves the fast-algorithm cutoff and the
// AlgAuto selection of a call; the planner (planOf, plan.go) is their
// one caller.
//
// A rectangular table divides the three tile grids by M, K, N per
// level, so its natural geometry is mixed-radix: gm = M^l·2^d,
// gk = K^l·2^d, gn = N^l·2^d — l table levels, then d levels of the
// square power-of-two base algorithm. The chooser enumerates (l, d)
// pairs whose tile sizes land in the configured range and scores each
// by a padded-flop model, the standard fast-algorithm recurrence: the
// leaves do 2·R^l·7^d·tm·tk·tn flops (R products per table level, 7
// per Strassen-family level below), with a mild efficiency penalty for
// tiles below the sweet spot — exactly the padding-vs-flop-ratio
// trade the paper's Section 5 measures for the quadrant algorithms.

// tableGeom is one chosen mixed-radix geometry.
type tableGeom struct {
	l          int  // table levels
	d          uint // power-of-two levels below
	gm, gk, gn int  // grid extents: M^l·2^d etc.
	tm, tk, tn int  // tile sizes
	cost       float64
}

const maxGeomDim = int64(1) << 31

// geomCost scores a candidate: modeled leaf flops over a leaf-
// efficiency factor that ramps linearly below the sweet tile size.
func geomCost(products float64, tm, tk, tn, sweet int) float64 {
	flops := 2 * products * float64(tm) * float64(tk) * float64(tn)
	t := tm
	if tk < t {
		t = tk
	}
	if tn < t {
		t = tn
	}
	eff := 1.0
	if sweet > 0 && t < sweet {
		eff = float64(t) / float64(sweet)
	}
	return flops / eff
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// chooseTableGeom picks the best mixed-radix geometry (l ≥ 1) for tb on
// an m×k×n block, or ok=false when no candidate keeps every tile inside
// [TMin, TMax] — the caller then falls back to the square power-of-two
// geometry, where the engine hands the whole grid to tb.Base.
func chooseTableGeom(tb *Table, cfg tile.Config, m, k, n int) (tableGeom, bool) {
	var best tableGeom
	ok := false
	rl := float64(tb.R)
	gm0, gk0, gn0 := tb.M, tb.K, tb.N
	for l := 1; l <= 8; l++ {
		if gm0 > m && gk0 > k && gn0 > n {
			break
		}
		p7 := rl
		gm, gk, gn := gm0, gk0, gn0
		for d := uint(0); d <= 20; d++ {
			if int64(gm) > int64(m)*2 && int64(gk) > int64(k)*2 && int64(gn) > int64(n)*2 {
				break
			}
			tm, tk, tn := ceilDiv(m, gm), ceilDiv(k, gk), ceilDiv(n, gn)
			inRange := func(t int) bool { return t >= cfg.TMin && t <= cfg.TMax }
			if inRange(tm) && inRange(tk) && inRange(tn) &&
				int64(gm)*int64(tm) < maxGeomDim && int64(gk)*int64(tk) < maxGeomDim &&
				int64(gn)*int64(tn) < maxGeomDim {
				c := geomCost(p7, tm, tk, tn, cfg.TSweet)
				if !ok || c < best.cost {
					best = tableGeom{l: l, d: d, gm: gm, gk: gk, gn: gn, tm: tm, tk: tk, tn: tn, cost: c}
					ok = true
				}
			}
			gm, gk, gn = gm*2, gk*2, gn*2
			p7 *= 7
		}
		gm0, gk0, gn0 = gm0*tb.M, gk0*tb.K, gn0*tb.N
		rl *= float64(tb.R)
	}
	return best, ok
}

// fastCutoff is the crossover rule; tests put fixed ones here.
var fastCutoff = leaf.FastCutoff

// settle resolves what only the geometry a call runs on can: the
// fast-algorithm cutoff for its kernel and tiles — o.FastCutoff
// verbatim when set, otherwise the rule priced on the passes of the
// ⟨2,2,2⟩ table that runs the levels it bounds — and AlgAuto, which is
// Standard unless at least one fast level survives the cutoff on a grid
// side tiles a side, and Winograd otherwise.
// The rectangular tables are not candidates: they run at 1.37× Standard's
// time where the flop model preferred them (EXPERIMENTS.md) and stay
// selectable by name. A call that names an algorithm that is not fast
// (Standard, Standard8) has no cutoff, whatever the option says.
func (o *Options) settle(kernel leaf.Impl, side, tm, tk, tn int) {
	tb := tableOf(o.Alg)
	if o.Alg == AlgAuto {
		tb = tableOf(Winograd)
	} else if !tb.fast() {
		o.FastCutoff = 0
		return
	}
	if o.FastCutoff <= 0 {
		if !tb.quad() {
			tb = tableOf(tb.Base)
		}
		n3, n2, zero := tb.passes()
		o.FastCutoff = fastCutoff(kernel, tm, tn, tk, n3, n2, zero)
	}
	if o.Alg == AlgAuto {
		o.Alg = Standard
		if side > o.FastCutoff {
			o.Alg = Winograd
		}
	}
}

// fastLevels counts the levels of alg's own recursion on a gm×gk×gn
// grid: a rectangular table's divisions, then a fast ⟨2,2,2⟩ table's
// levels above cutoff. Zero means the call goes straight to a classical
// recursion.
func fastLevels(alg Alg, gm, gk, gn, cutoff int) (n int) {
	if tb := tableOf(alg); tb != nil && !tb.quad() {
		for !(gm == gk && gk == gn && gm&(gm-1) == 0) && gm%tb.M == 0 && gk%tb.K == 0 && gn%tb.N == 0 {
			gm, gk, gn, n = gm/tb.M, gk/tb.K, gn/tb.N, n+1
		}
		alg = tb.Base
	}
	for t := gm; tableOf(alg).fast() && t > max(cutoff, 1); t /= 2 {
		n++
	}
	return n
}

// splitSegs cuts an m×k×n call into the segments its blocks multiply
// (Figure 3), or leaves it whole.
func splitSegs(o Options, m, k, n int) (ms, ks, ns []tile.Seg) {
	if !o.DisableSplit && o.ForceTile == 0 {
		return o.Tile.SplitDims(m, k, n)
	}
	return []tile.Seg{{Len: m}}, []tile.Seg{{Len: k}}, []tile.Seg{{Len: n}}
}
