// Package layout implements the array layout functions of Chatterjee,
// Lebeck, Patnala, and Thottethodi, "Recursive Array Layouts and Fast
// Parallel Matrix Multiplication" (SPAA 1999), Section 3.
//
// A layout function maps a two-dimensional index space onto linear memory.
// The canonical layouts (row-major L_R, column-major L_C) favor one axis
// and dilate the other. The five recursive layouts — U-Morton, X-Morton,
// Z-Morton, Gray-Morton, and Hilbert — are derived from space-filling
// curves and keep quadrants of the index space contiguous in memory at
// every scale.
//
// Following the paper, the recursive layouts are applied in "T-space":
// the matrix is viewed as a 2^d × 2^d grid of t_R × t_C tiles; the curve
// orders the tiles, and each tile is stored contiguously in column-major
// order (equation (3) of the paper). This package provides:
//
//   - the S functions (position along the curve) for all curves, computed
//     with the fast bit-manipulation algorithms of Section 3;
//   - their inverses;
//   - the orientation machinery (quadrant visit order and child
//     orientations) that lets the matrix-multiplication recursion locate
//     quadrants implicitly, without ever evaluating S in the hot path
//     (Section 4, "Integration of address computation into control
//     structure");
//   - orientation permutation arrays used by the pre-/post-additions of
//     the fast algorithms under the multi-orientation layouts (Section 4,
//     "Issues with pre- and post-additions").
package layout

import "fmt"

// Curve identifies a layout function. The zero value, Default, names
// none: it is "the library's choice", which the multiplication planner
// resolves before anything is laid out (to Z-Morton), so no stored
// matrix ever carries it. Only
// names are persisted (wire, plan keys, flags); the numeric ids are not
// stable.
type Curve uint8

// The layout functions evaluated in the paper (Figure 2). ColMajor and
// RowMajor are the canonical layouts L_C and L_R; the remaining five are
// the recursive layouts L_U, L_X, L_Z, L_G, L_H.
const (
	Default    Curve = iota // unset: the planner's choice
	ColMajor                // L_C: column-major (Fortran, BLAS)
	RowMajor                // L_R: row-major (Pascal, C)
	UMorton                 // L_U: single-orientation, U-shaped quadrant order
	XMorton                 // L_X: single-orientation, X-shaped quadrant order
	ZMorton                 // L_Z: single-orientation, Lebesgue curve
	GrayMorton              // L_G: two orientations, Gray-code interleaving
	Hilbert                 // L_H: four orientations, Hilbert curve
	numCurves
)

// Curves lists every layout function in paper order, convenient for the
// cross-product experiments of Section 5.
var Curves = []Curve{ColMajor, RowMajor, UMorton, XMorton, ZMorton, GrayMorton, Hilbert}

// RecursiveCurves lists only the five recursive layouts of Section 3.
var RecursiveCurves = []Curve{UMorton, XMorton, ZMorton, GrayMorton, Hilbert}

var curveNames = [numCurves]string{
	"default", "ColMajor", "RowMajor", "U-Morton", "X-Morton", "Z-Morton", "Gray-Morton", "Hilbert",
}

func (c Curve) String() string {
	if int(c) < len(curveNames) {
		return curveNames[c]
	}
	return fmt.Sprintf("Curve(%d)", uint8(c))
}

// ParseCurve maps a user-facing name (case-sensitive, as printed by
// String, or the short forms "c", "r", "u", "x", "z", "g", "h") to a Curve;
// "" and "default" are Default.
func ParseCurve(s string) (Curve, error) {
	switch s {
	case "", "default":
		return Default, nil
	case "ColMajor", "c", "col", "colmajor":
		return ColMajor, nil
	case "RowMajor", "r", "row", "rowmajor":
		return RowMajor, nil
	case "U-Morton", "u", "umorton":
		return UMorton, nil
	case "X-Morton", "x", "xmorton":
		return XMorton, nil
	case "Z-Morton", "z", "zmorton", "morton":
		return ZMorton, nil
	case "Gray-Morton", "g", "graymorton", "gray":
		return GrayMorton, nil
	case "Hilbert", "h", "hilbert":
		return Hilbert, nil
	}
	return 0, fmt.Errorf("layout: unknown curve %q", s)
}

// Recursive reports whether the curve is one of the five recursive
// layouts (as opposed to a canonical layout).
func (c Curve) Recursive() bool {
	return c >= UMorton && c <= Hilbert
}

// Orientations returns the number of distinct orientations the curve's
// self-similar construction requires: 1 for the Morton family, 2 for
// Gray-Morton, 4 for Hilbert (Section 3 classification). Canonical
// layouts report 1.
func (c Curve) Orientations() int {
	switch c {
	case GrayMorton:
		return 2
	case Hilbert:
		return 4
	default:
		return 1
	}
}

// Orient identifies one of a curve's orientations. Orientation 0 is the
// reference orientation in which whole matrices are laid out. For
// Gray-Morton, orientation 1 is the 180°-rotated variant. For Hilbert the
// four orientations form the Klein four-group {identity, transpose,
// 180° rotation, anti-transpose}, and composition is XOR of indices.
type Orient uint8

const (
	// OrientID is the identity (reference) orientation.
	OrientID Orient = 0
	// OrientT is the transpose orientation (Hilbert only).
	OrientT Orient = 1
	// OrientR is the 180°-rotation orientation (Gray-Morton uses
	// index 1 for its rotated orientation; Hilbert uses index 2).
	OrientR Orient = 2
	// OrientAT is the anti-transpose orientation (Hilbert only).
	OrientAT Orient = 3
)

// A quadrant of a square index space is encoded as 2*rowBit + colBit:
// NW=0, NE=1, SW=2, SE=3.
const (
	QuadNW = 0
	QuadNE = 1
	QuadSW = 2
	QuadSE = 3
)

// applyTransform applies Hilbert orientation transform t (Klein
// four-group element) to quadrant q.
func applyTransform(t Orient, q int) int {
	qi, qj := q>>1, q&1
	switch t {
	case OrientID:
		return q
	case OrientT: // transpose: swap row and column bits
		return qj<<1 | qi
	case OrientR: // 180° rotation: complement both bits
		return q ^ 3
	default: // OrientAT: transpose then rotate
		return (qj<<1 | qi) ^ 3
	}
}

// Descent tables. quadOrder[c][o][p] is the quadrant visited at position
// p along curve c in orientation o; childOrient[c][o][p] is the
// orientation of that child quadrant. posOf inverts quadOrder.
var (
	quadOrder   [numCurves][4][4]uint8
	childOrient [numCurves][4][4]Orient
	posOf       [numCurves][4][4]uint8
)

func init() {
	// Single-orientation curves: orders derived directly from the bit
	// formulas of Section 3.1 (position p as a function of the level's
	// row bit and column bit).
	single := map[Curve][4]uint8{
		// L_Z: p = 2*ib + jb → NW, NE, SW, SE.
		ZMorton: {QuadNW, QuadNE, QuadSW, QuadSE},
		// L_U: p = 2*jb + (ib^jb) → NW, SW, SE, NE.
		UMorton: {QuadNW, QuadSW, QuadSE, QuadNE},
		// L_X: p = 2*(ib^jb) + jb → NW, SE, SW, NE.
		XMorton: {QuadNW, QuadSE, QuadSW, QuadNE},
	}
	for c, ord := range single {
		quadOrder[c][0] = ord
		// childOrient stays all-zero: one orientation.
	}

	// Gray-Morton: base order NW, NE, SE, SW with children alternating
	// between the reference and rotated orientations; the rotated
	// orientation visits the 180°-rotated quadrants with conjugated
	// child orientations. (Derived from S = G⁻¹(G(i) ⋈ G(j)); pinned
	// against the direct formula in the tests.)
	quadOrder[GrayMorton][0] = [4]uint8{QuadNW, QuadNE, QuadSE, QuadSW}
	childOrient[GrayMorton][0] = [4]Orient{0, 1, 1, 0}
	for p := 0; p < 4; p++ {
		quadOrder[GrayMorton][1][p] = uint8(applyTransform(OrientR, int(quadOrder[GrayMorton][0][p])))
		childOrient[GrayMorton][1][p] = childOrient[GrayMorton][0][p] ^ 1
	}

	// Hilbert: base order NW, SW, SE, NE; base child transforms
	// T, id, id, AT. Orientation o visits o(base[p]) with child
	// orientation o ∘ baseChild[p] (= XOR in the Klein four-group).
	base := [4]uint8{QuadNW, QuadSW, QuadSE, QuadNE}
	baseChild := [4]Orient{OrientT, OrientID, OrientID, OrientAT}
	for o := Orient(0); o < 4; o++ {
		for p := 0; p < 4; p++ {
			quadOrder[Hilbert][o][p] = uint8(applyTransform(o, int(base[p])))
			childOrient[Hilbert][o][p] = o ^ baseChild[p]
		}
	}

	// Canonical curves get the Z order for completeness so that generic
	// code may iterate positions; core never descends them this way.
	quadOrder[ColMajor][0] = [4]uint8{QuadNW, QuadSW, QuadNE, QuadSE}
	quadOrder[RowMajor][0] = [4]uint8{QuadNW, QuadNE, QuadSW, QuadSE}

	for _, c := range Curves {
		for o := 0; o < 4; o++ {
			for p := 0; p < 4; p++ {
				posOf[c][o][quadOrder[c][o][p]] = uint8(p)
			}
		}
	}
}

// QuadAt returns the quadrant visited at position p (0..3) along curve c
// in orientation o.
func (c Curve) QuadAt(o Orient, p int) int {
	return int(quadOrder[c][o][p])
}

// ChildOrient returns the orientation of the child quadrant at position p
// along curve c in orientation o.
func (c Curve) ChildOrient(o Orient, p int) Orient {
	return childOrient[c][o][p]
}

// PosOf returns the position along the curve (in orientation o) at which
// quadrant q is visited; it inverts QuadAt.
func (c Curve) PosOf(o Orient, q int) int {
	return int(posOf[c][o][q])
}
