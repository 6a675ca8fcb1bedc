// Package tile implements the tile-size selection, padding, and
// wide/lean-matrix decomposition logic of Section 4 of the paper.
//
// The recursive layouts require (equation (2)) that the padded matrix be
// a 2^d × 2^d grid of t_R × t_C tiles with every tile size drawn from an
// architecture-dependent range [Tmin, Tmax]: tiles must not be so small
// that recursion overhead dominates, nor so large that a tile trio
// overflows the cache. For a matrix multiplication the three dimensions
// (m, k, n) must share the same depth d.
//
// Matrices whose aspect ratio exceeds α = Tmax/Tmin (called wide or lean
// in the paper) admit no such tiling; they are cut into squat submatrices
// first (Figure 3), and the product is reconstructed from submatrix
// products.
package tile

import (
	"fmt"

	"repro/internal/bits"
)

// Config carries the architecture-dependent tile-size range of Section 4
// plus a preferred tile size used to break ties among equally-padded
// choices (the Figure 4 experiment shows a broad performance plateau; the
// sweet spot on the paper's machine was 16–32).
type Config struct {
	TMin, TMax int
	// TSweet is the preferred tile size; among depth choices whose
	// padded volume is within PadSlack of the minimum, the one whose
	// largest tile is closest to TSweet wins.
	TSweet int
	// PadSlack is the tolerated relative increase in padded volume when
	// preferring a sweeter tile size (e.g. 0.05 = 5%).
	PadSlack float64
	// MicroM and MicroN, when positive, express a register-blocked leaf
	// kernel's micro-tile shape: among the near-tie candidates (within
	// PadSlack of the minimum padded volume), choices whose first-dim
	// tile is a multiple of MicroM and last-dim tile a multiple of
	// MicroN are preferred, before the TSweet distance is compared. A
	// micro-aligned tile is whole register blocks; any other pads its
	// last rows and columns to a block whose spare lanes are wasted.
	// Zero values (the default) leave selection exactly as before.
	MicroM, MicroN int
}

// DefaultConfig mirrors the paper's effective choices: tiles between 16
// and 64 elements on a side, preferring 32.
var DefaultConfig = Config{TMin: 16, TMax: 64, TSweet: 32, PadSlack: 0.05}

// Alpha returns α = Tmax/Tmin, the squatness bound of Section 4.
func (c Config) Alpha() float64 {
	return float64(c.TMax) / float64(c.TMin)
}

// Classify reports the paper's aspect-ratio class for an m×n matrix:
// "wide" when m/n > α, "lean" when m/n < 1/α, "squat" otherwise.
func (c Config) Classify(m, n int) string {
	r := float64(m) / float64(n)
	a := c.Alpha()
	switch {
	case r > a:
		return "wide"
	case r < 1/a:
		return "lean"
	default:
		return "squat"
	}
}

// Choice is the result of tile selection: a common depth d and, for each
// requested dimension, the tile size and padded extent (tile << d).
type Choice struct {
	D      uint  // recursion depth: 2^d tiles per side
	Tiles  []int // tile size per dimension
	Padded []int // padded extent per dimension: Tiles[i] << D
	// Strict reports whether every tile size lies in [TMin, TMax] as
	// equation (2) demands. When false, the fallback that permits
	// undersized tiles was used (tiny or extreme-aspect inputs).
	Strict bool
}

// maxDepth bounds the search; 2^26 tiles per side is far beyond any
// in-memory matrix.
const maxDepth = 26

// Pick selects a common depth d and per-dimension tile sizes for the
// given dimensions (two for a layout conversion, three for a matrix
// multiplication). It minimizes the padded volume, breaking near-ties
// (within PadSlack) in favor of tile sizes near TSweet. Pick always
// succeeds: if no depth satisfies the strict [TMin, TMax] constraint, it
// relaxes the lower bound (Strict=false in the result).
//
// Note that squatness (aspect ratio ≤ α) is necessary but not sufficient
// for a strict choice to exist: each dimension admits depths in a real
// interval of width lg α, and the integer depths inside those intervals
// may fail to intersect even when the intervals overlap (for example,
// dimensions 439 and 1062 under the default range). The paper's footnote
// 2 proves only the necessary direction; the fallback covers the gap.
func (c Config) Pick(dims ...int) Choice {
	if len(dims) == 0 {
		panic("tile: Pick with no dimensions")
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tile: non-positive dimension %d", d))
		}
	}
	best := c.pick(dims, true)
	if best.D == maxDepth+1 { // no strict choice exists
		best = c.pick(dims, false)
		best.Strict = false
	} else {
		best.Strict = true
	}
	return best
}

// pick searches depths 0..maxDepth. When strict, a tile size below TMin
// is rejected unless d == 0 (whole matrix as one tile).
func (c Config) pick(dims []int, strict bool) Choice {
	type cand struct {
		d     uint
		tiles []int
		vol   float64
		maxT  int
	}
	var cands []cand
	for d := uint(0); d <= maxDepth; d++ {
		side := 1 << d
		tiles := make([]int, len(dims))
		vol := 1.0
		maxT := 0
		ok := true
		for i, dim := range dims {
			t := bits.CeilDiv(dim, side)
			if t > c.TMax || (strict && d > 0 && t < c.TMin) {
				ok = false
				break
			}
			tiles[i] = t
			vol *= float64(t * side)
			if t > maxT {
				maxT = t
			}
		}
		if ok {
			cands = append(cands, cand{d, tiles, vol, maxT})
		}
		// Once every dimension yields a single-element tile there is no
		// point searching deeper.
		if side >= dims[0] {
			all := true
			for _, dim := range dims {
				if side < dim {
					all = false
				}
			}
			if all && d > 0 {
				break
			}
		}
	}
	if len(cands) == 0 {
		return Choice{D: maxDepth + 1}
	}
	minVol := cands[0].vol
	for _, cd := range cands[1:] {
		if cd.vol < minVol {
			minVol = cd.vol
		}
	}
	// The first Pick dimension is the kernel's m (rows of C), the last
	// its n (columns of C); a candidate is micro-aligned when both are
	// multiples of the configured micro-tile shape.
	aligned := func(tiles []int) bool {
		if c.MicroM > 0 && tiles[0]%c.MicroM != 0 {
			return false
		}
		if c.MicroN > 0 && tiles[len(tiles)-1]%c.MicroN != 0 {
			return false
		}
		return true
	}
	bestIdx := -1
	bestDist := 1 << 30
	bestAligned := false
	for i, cd := range cands {
		if cd.vol > minVol*(1+c.PadSlack) {
			continue
		}
		al := aligned(cd.tiles)
		dist := cd.maxT - c.TSweet
		if dist < 0 {
			dist = -dist
		}
		var better bool
		switch {
		case bestIdx < 0:
			better = true
		case al != bestAligned:
			better = al
		default:
			better = dist < bestDist
		}
		if better {
			bestIdx, bestDist, bestAligned = i, dist, al
		}
	}
	ch := cands[bestIdx]
	padded := make([]int, len(dims))
	for i, t := range ch.tiles {
		padded[i] = t << ch.d
	}
	return Choice{D: ch.d, Tiles: ch.tiles, Padded: padded}
}

// Seg is one segment of a split dimension.
type Seg struct {
	Off, Len int
}

// SplitDim cuts a dimension of the given length into the fewest
// near-equal segments of length at most maxLen.
func SplitDim(length, maxLen int) []Seg {
	if length <= maxLen {
		return []Seg{{0, length}}
	}
	parts := bits.CeilDiv(length, maxLen)
	segs := make([]Seg, 0, parts)
	off := 0
	for p := 0; p < parts; p++ {
		// Distribute the remainder so segments differ by at most 1.
		l := length / parts
		if p < length%parts {
			l++
		}
		segs = append(segs, Seg{off, l})
		off += l
	}
	return segs
}

// SplitDims decomposes a multiplication with dimensions (m, k, n) into
// segments per dimension such that each sub-multiplication is squat
// enough for Pick to satisfy the strict tile constraint (Figure 3 of the
// paper). The products over the k segments accumulate into the same C
// blocks; the (m, n) block grid is embarrassingly parallel.
//
// The segment bound α·short is biased down to a power-of-two multiple
// of TSweet, so every block tiles at the sweet size on a power-of-two
// grid: a block of 171 cuts into 22- or 43-element tiles, of whose
// padded register blocks up to a quarter of the lanes are wasted, a
// block of 128 into 32s. It is the one split rule of the tree — a direct GEMM, a
// plan prepacked for partners of width n, and the operand packed to
// conform with it all call it with the same (m, k, n) and so agree on
// the blocks.
func (c Config) SplitDims(m, k, n int) (ms, ks, ns []Seg) {
	short := m
	if k < short {
		short = k
	}
	if n < short {
		short = n
	}
	if short < c.TMin {
		short = c.TMin
	}
	maxLen := int(float64(short) * c.Alpha())
	if g := c.TSweet; g > 0 && maxLen >= g {
		for g*2 <= maxLen {
			g *= 2
		}
		maxLen = g
	}
	return SplitDim(m, maxLen), SplitDim(k, maxLen), SplitDim(n, maxLen)
}
