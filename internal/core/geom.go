package core

import (
	"repro/internal/leaf"
	"repro/internal/tile"
)

// This file resolves the fast-algorithm cutoff and the AlgAuto
// selection of a call, and counts the fast levels its grid runs; the
// planner (planOf, plan.go) is their one caller.

// fastCutoff is the crossover rule; tests put fixed ones here.
var fastCutoff = leaf.FastCutoff

// settle resolves what only the geometry a call runs on can: the
// fast-algorithm cutoff for its kernel and tiles — o.FastCutoff
// verbatim when set, otherwise the rule priced on the passes of the
// ⟨2,2,2⟩ table that runs the levels it bounds — and AlgAuto, which is
// Standard unless at least one fast level survives the cutoff on a grid
// side tiles a side, and Winograd otherwise. A call that names an
// algorithm that is not fast (Standard, Standard8) has no cutoff,
// whatever the option says.
func (o *Options) settle(kernel leaf.Impl, side, tm, tk, tn int) {
	tb := tableOf(o.Alg)
	if o.Alg == AlgAuto {
		tb = tableOf(Winograd)
	} else if !tb.fast() {
		o.FastCutoff = 0
		return
	}
	if o.FastCutoff <= 0 {
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

// fastLevels counts the levels of alg's own recursion on a grid side
// tiles a side: a fast table's levels above cutoff. Zero means the call
// goes straight to a classical recursion.
func fastLevels(alg Alg, side, cutoff int) (n int) {
	for t := side; tableOf(alg).fast() && t > max(cutoff, 1); t /= 2 {
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
