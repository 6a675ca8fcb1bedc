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
// is rejected unless d == 0 (whole matrix as one tile). A first pass
// finds the smallest padded volume, a second the choice among depths
// within PadSlack of it; only the chosen depth's tiles are stored.
func (c Config) pick(dims []int, strict bool) Choice {
	// at is depth d's padded volume and largest tile; ok is false when a
	// tile is out of range.
	at := func(d uint) (vol float64, maxT int, ok bool) {
		side := 1 << d
		vol = 1
		for _, dim := range dims {
			t := (dim + side - 1) >> d // the side is a power of two
			if t > c.TMax || (strict && d > 0 && t < c.TMin) {
				return 0, 0, false
			}
			vol *= float64(t * side)
			maxT = max(maxT, t)
		}
		return vol, maxT, true
	}
	// Tiles shrink with depth, so the valid depths are one run: the search
	// ends past it, or once every dimension yields a single-element tile.
	last, longest := uint(maxDepth), 0
	for _, dim := range dims {
		longest = max(longest, dim)
	}
	minVol, found := 0.0, false
	for d := uint(0); d <= last; d++ {
		if vol, _, ok := at(d); !ok && found {
			last = d - 1
		} else if ok && (!found || vol < minVol) {
			minVol, found = vol, true
		}
		if d > 0 && 1<<d >= longest {
			last = d
		}
	}
	if !found {
		return Choice{D: maxDepth + 1}
	}
	// The first Pick dimension is the kernel's m (rows of C), the last
	// its n (columns of C); a candidate is micro-aligned when both are
	// multiples of the configured micro-tile shape.
	aligned := func(d uint) bool {
		side := 1 << d
		return (c.MicroM <= 0 || (dims[0]+side-1)>>d%c.MicroM == 0) &&
			(c.MicroN <= 0 || (dims[len(dims)-1]+side-1)>>d%c.MicroN == 0)
	}
	best, bestDist, bestAligned := -1, 0, false
	for d := uint(0); d <= last; d++ {
		vol, maxT, ok := at(d)
		if !ok || vol > minVol*(1+c.PadSlack) {
			continue
		}
		al, dist := aligned(d), maxT-c.TSweet
		if dist < 0 {
			dist = -dist
		}
		if best < 0 || al != bestAligned && al || al == bestAligned && dist < bestDist {
			best, bestDist, bestAligned = int(d), dist, al
		}
	}
	buf := make([]int, 2*len(dims)) // one allocation for both
	ch := Choice{D: uint(best), Tiles: buf[:len(dims):len(dims)], Padded: buf[len(dims):]}
	for i, dim := range dims {
		ch.Tiles[i] = (dim + 1<<best - 1) >> best
		ch.Padded[i] = ch.Tiles[i] << best
	}
	return ch
}

// Seg is one segment of a split dimension.
type Seg struct {
	Off, Len int
}

// SplitDim cuts a dimension of the given length into the fewest
// near-equal segments of length at most maxLen.
func SplitDim(length, maxLen int) []Seg {
	return splitInto(nil, length, maxLen)
}

// splitInto appends SplitDim's segments to segs.
func splitInto(segs []Seg, length, maxLen int) []Seg {
	parts := max(bits.CeilDiv(length, maxLen), 1)
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
// block of 128 into 32s. It is the one split rule of the tree: the plan
// of an A operand calls it for a square partner, and a product with that
// A calls it with its own (m, k, n), which fixes the free dimension's cut
// and the depth at which every entry point, a direct GEMM included, reads
// the quadrants of the plan's blocks. The three cuts share one array.
func (c Config) SplitDims(m, k, n int) (ms, ks, ns []Seg) {
	short := max(min(m, k, n), c.TMin)
	maxLen := int(float64(short) * c.Alpha())
	if g := c.TSweet; g > 0 && maxLen >= g {
		for g*2 <= maxLen {
			g *= 2
		}
		maxLen = g
	}
	segs := make([]Seg, 0, (m+k+n)/maxLen+3)
	segs = splitInto(segs, m, maxLen)
	ms = segs[:len(segs):len(segs)]
	segs = splitInto(segs, k, maxLen)
	ks = segs[len(ms):len(segs):len(segs)]
	ns = splitInto(segs, n, maxLen)[len(segs):]
	return ms, ks, ns
}
