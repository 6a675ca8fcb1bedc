package layout

import "repro/internal/bits"

// S returns the position along curve c of the cell at rectangular
// coordinates (i, j) in a 2^d × 2^d grid — the 𝕊 function of Section 3.
// S(0,0) = 0 for every curve. The canonical curves are included so that
// conversion and visualization code can treat all layouts uniformly:
// for them "position along the curve" is simply the canonical offset.
//
// The Morton-family and Gray-Morton values are computed with the O(lg w)
// bit-manipulation formulas of Sections 3.1 and 3.2; Hilbert uses the
// Bially finite-state-machine method of Section 3.3, consuming one bit
// pair of (i, j) per step from the most significant level downward and
// emitting two bits of S per step.
func (c Curve) S(i, j uint32, d uint) uint64 {
	switch c {
	case ColMajor:
		return uint64(j)<<d | uint64(i)
	case RowMajor:
		return uint64(i)<<d | uint64(j)
	case UMorton:
		return bits.Interleave(j, i^j)
	case XMorton:
		return bits.Interleave(i^j, j)
	case ZMorton:
		return bits.Interleave(i, j)
	case GrayMorton:
		return bits.GrayInverse64(bits.Interleave(bits.Gray(i), bits.Gray(j)))
	case Hilbert:
		var s uint64
		state := OrientID
		for k := int(d) - 1; k >= 0; k-- {
			q := int(bits.Pair(i, j, uint(k)))
			p := posOf[Hilbert][state][q]
			s = s<<2 | uint64(p)
			state = childOrient[Hilbert][state][p]
		}
		return s
	}
	panic("layout: invalid curve")
}

// SInverse returns the rectangular coordinates of the cell at position s
// along curve c in a 2^d × 2^d grid; it inverts S.
func (c Curve) SInverse(s uint64, d uint) (i, j uint32) {
	switch c {
	case ColMajor:
		mask := uint64(1)<<d - 1
		return uint32(s & mask), uint32(s >> d)
	case RowMajor:
		mask := uint64(1)<<d - 1
		return uint32(s >> d), uint32(s & mask)
	case UMorton:
		u, v := bits.Deinterleave(s) // u = j, v = i^j
		return u ^ v, u
	case XMorton:
		u, v := bits.Deinterleave(s) // u = i^j, v = j
		return u ^ v, v
	case ZMorton:
		return bits.Deinterleave(s)
	case GrayMorton:
		gi, gj := bits.Deinterleave(bits.Gray64(s))
		return bits.GrayInverse(gi), bits.GrayInverse(gj)
	case Hilbert:
		state := OrientID
		for k := int(d) - 1; k >= 0; k-- {
			p := int(s >> (2 * uint(k)) & 3)
			q := quadOrder[Hilbert][state][p]
			i = i<<1 | uint32(q>>1)
			j = j<<1 | uint32(q&1)
			state = childOrient[Hilbert][state][p]
		}
		return i, j
	}
	panic("layout: invalid curve")
}

// SOriented is S evaluated for a sub-curve that starts in orientation o
// instead of the reference orientation. The recursive layouts assign
// non-reference orientations to interior quadrants; tests use SOriented
// to check tile positions inside such quadrants, independently of the
// engine's position tables. For single-orientation curves it is S.
func (c Curve) SOriented(o Orient, i, j uint32, d uint) uint64 {
	if c.Orientations() == 1 || o == OrientID {
		return c.S(i, j, d)
	}
	var s uint64
	state := o
	for k := int(d) - 1; k >= 0; k-- {
		q := int(bits.Pair(i, j, uint(k)))
		p := posOf[c][state][q]
		s = s<<2 | uint64(p)
		state = childOrient[c][state][p]
	}
	return s
}

// SInverseOriented inverts SOriented.
func (c Curve) SInverseOriented(o Orient, s uint64, d uint) (i, j uint32) {
	if c.Orientations() == 1 || o == OrientID {
		return c.SInverse(s, d)
	}
	state := o
	for k := int(d) - 1; k >= 0; k-- {
		p := int(s >> (2 * uint(k)) & 3)
		q := quadOrder[c][state][p]
		i = i<<1 | uint32(q>>1)
		j = j<<1 | uint32(q&1)
		state = childOrient[c][state][p]
	}
	return i, j
}

// SDescent computes S by explicit quadrant descent using the orientation
// tables, for any curve including the canonical ones where the descent is
// not meaningful (those panic). It exists as an independently-derived
// reference implementation against which the fast bit-manipulation
// S functions are cross-checked in the tests.
func (c Curve) SDescent(i, j uint32, d uint) uint64 {
	if !c.Recursive() {
		panic("layout: SDescent on canonical curve")
	}
	return c.SOriented(OrientID, i, j, d)
}

// Grid returns the full d-level ordering of curve c as a 2^d × 2^d
// row-major slice g with g[i*2^d+j] = S(i,j). It is used by the
// visualization command and by tests that pin the Figure 2 orderings.
func (c Curve) Grid(d uint) []uint64 {
	n := 1 << d
	g := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g[i*n+j] = c.S(uint32(i), uint32(j), d)
		}
	}
	return g
}

// Perm returns the tile permutation that relates two orientations of the
// same curve over a 2^d × 2^d block of tiles: element t of the result is
// the position, in orientation `to`, of the tile stored at position t in
// orientation `from` — the correspondence the fast algorithms' pre- and
// post-additions between differently oriented quadrants must respect
// (Section 4). The engine finds each operand's tile in its own position
// table instead; Perm, derived from the S functions alone, is the
// reference its addition tests compare against, and pins Gray-Morton's
// half-step symmetry (Perm(0, 1) is a rotation by half the tiles).
func (c Curve) Perm(from, to Orient, d uint) []int32 {
	n := 1 << d
	perm := make([]int32, n*n)
	for s := 0; s < n*n; s++ {
		i, j := c.SInverseOriented(from, uint64(s), d)
		perm[s] = int32(c.SOriented(to, i, j, d))
	}
	return perm
}
