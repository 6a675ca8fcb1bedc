package layout

import (
	"testing"
	"testing/quick"
)

// abs1 reports whether a and b differ by exactly 1.
func adj(a, b uint32) bool {
	return a-b == 1 || b-a == 1
}

func TestSZero(t *testing.T) {
	// The paper adopts the convention S(0,0) = 0 for all layouts.
	for _, c := range Curves {
		for d := uint(0); d <= 8; d++ {
			if got := c.S(0, 0, d); got != 0 {
				t.Errorf("%v: S(0,0;d=%d) = %d, want 0", c, d, got)
			}
		}
	}
}

func TestSBijective(t *testing.T) {
	for _, c := range Curves {
		for d := uint(1); d <= 5; d++ {
			n := uint32(1) << d
			seen := make(map[uint64]bool, n*n)
			for i := uint32(0); i < n; i++ {
				for j := uint32(0); j < n; j++ {
					s := c.S(i, j, d)
					if s >= uint64(n)*uint64(n) {
						t.Fatalf("%v d=%d: S(%d,%d) = %d out of range", c, d, i, j, s)
					}
					if seen[s] {
						t.Fatalf("%v d=%d: S(%d,%d) = %d duplicated", c, d, i, j, s)
					}
					seen[s] = true
				}
			}
		}
	}
}

func TestSInverseRoundTrip(t *testing.T) {
	for _, c := range Curves {
		for d := uint(1); d <= 6; d++ {
			n := uint32(1) << d
			for i := uint32(0); i < n; i++ {
				for j := uint32(0); j < n; j++ {
					s := c.S(i, j, d)
					gi, gj := c.SInverse(s, d)
					if gi != i || gj != j {
						t.Fatalf("%v d=%d: SInverse(S(%d,%d)) = (%d,%d)", c, d, i, j, gi, gj)
					}
				}
			}
		}
	}
}

func TestSInverseOrientedRoundTrip(t *testing.T) {
	for _, c := range RecursiveCurves {
		for o := Orient(0); int(o) < c.Orientations(); o++ {
			for d := uint(1); d <= 4; d++ {
				n := uint32(1) << d
				for i := uint32(0); i < n; i++ {
					for j := uint32(0); j < n; j++ {
						s := c.SOriented(o, i, j, d)
						gi, gj := c.SInverseOriented(o, s, d)
						if gi != i || gj != j {
							t.Fatalf("%v o=%d d=%d: round trip failed at (%d,%d)", c, o, d, i, j)
						}
					}
				}
			}
		}
	}
}

// TestDescentMatchesBitFormulas cross-checks the two independently
// derived implementations of each recursive S function: the fast
// bit-manipulation formula (Section 3) and the orientation-table quadrant
// descent (Section 4's control structure).
func TestDescentMatchesBitFormulas(t *testing.T) {
	for _, c := range RecursiveCurves {
		for d := uint(1); d <= 6; d++ {
			n := uint32(1) << d
			for i := uint32(0); i < n; i++ {
				for j := uint32(0); j < n; j++ {
					fast := c.S(i, j, d)
					desc := c.SDescent(i, j, d)
					if fast != desc {
						t.Fatalf("%v d=%d (%d,%d): fast=%d descent=%d", c, d, i, j, fast, desc)
					}
				}
			}
		}
	}
}

// TestPinned4x4Orderings pins the exact 4×4 orderings of every curve so
// that any change to the tables or formulas is caught. The recursive
// orderings correspond to the structure in Figure 2 of the paper.
func TestPinned4x4Orderings(t *testing.T) {
	want := map[Curve][]uint64{
		ColMajor: {
			0, 4, 8, 12,
			1, 5, 9, 13,
			2, 6, 10, 14,
			3, 7, 11, 15,
		},
		RowMajor: {
			0, 1, 2, 3,
			4, 5, 6, 7,
			8, 9, 10, 11,
			12, 13, 14, 15,
		},
		ZMorton: {
			0, 1, 4, 5,
			2, 3, 6, 7,
			8, 9, 12, 13,
			10, 11, 14, 15,
		},
		UMorton: {
			0, 3, 12, 15,
			1, 2, 13, 14,
			4, 7, 8, 11,
			5, 6, 9, 10,
		},
		XMorton: {
			0, 3, 12, 15,
			2, 1, 14, 13,
			8, 11, 4, 7,
			10, 9, 6, 5,
		},
		GrayMorton: {
			0, 1, 6, 7,
			3, 2, 5, 4,
			12, 13, 10, 11,
			15, 14, 9, 8,
		},
		Hilbert: {
			0, 1, 14, 15,
			3, 2, 13, 12,
			4, 7, 8, 11,
			5, 6, 9, 10,
		},
	}
	for c, w := range want {
		g := c.Grid(2)
		for k := range w {
			if g[k] != w[k] {
				t.Errorf("%v grid(2):\n got %v\nwant %v", c, g, w)
				break
			}
		}
	}
}

// TestHilbertContinuity verifies the defining property of the Hilbert
// curve: consecutive positions along the curve are grid-adjacent. None of
// the Morton-family curves has this property — their "jumps" are the
// multi-scale dilation effect discussed in Section 3.4.
func TestHilbertContinuity(t *testing.T) {
	for d := uint(1); d <= 7; d++ {
		n := uint64(1) << d
		pi, pj := Hilbert.SInverse(0, d)
		for s := uint64(1); s < n*n; s++ {
			i, j := Hilbert.SInverse(s, d)
			manhattan := 0
			if i != pi {
				if !adj(i, pi) {
					t.Fatalf("d=%d s=%d: row jump %d -> %d", d, s, pi, i)
				}
				manhattan++
			}
			if j != pj {
				if !adj(j, pj) {
					t.Fatalf("d=%d s=%d: col jump %d -> %d", d, s, pj, j)
				}
				manhattan++
			}
			if manhattan != 1 {
				t.Fatalf("d=%d s=%d: (%d,%d) -> (%d,%d) not adjacent", d, s, pi, pj, i, j)
			}
			pi, pj = i, j
		}
	}
}

// TestHilbertContinuityAllOrientations checks continuity for the
// sub-curves in all four orientations, which exercises every entry of the
// orientation tables.
func TestHilbertContinuityAllOrientations(t *testing.T) {
	for o := Orient(0); o < 4; o++ {
		for d := uint(1); d <= 5; d++ {
			n := uint64(1) << d
			pi, pj := Hilbert.SInverseOriented(o, 0, d)
			for s := uint64(1); s < n*n; s++ {
				i, j := Hilbert.SInverseOriented(o, s, d)
				if (i-pi)*(i-pi)+(j-pj)*(j-pj) != 1 {
					t.Fatalf("o=%d d=%d s=%d: (%d,%d) -> (%d,%d) not adjacent", o, d, s, pi, pj, i, j)
				}
				pi, pj = i, j
			}
		}
	}
}

// TestMortonNonContinuity documents that the single-orientation layouts
// are NOT continuous (they have the multi-scale jumps of Section 3.4);
// this guards against accidentally swapping curve implementations.
func TestMortonNonContinuity(t *testing.T) {
	for _, c := range []Curve{UMorton, XMorton, ZMorton, GrayMorton} {
		d := uint(3)
		n := uint64(1) << d
		jumps := 0
		pi, pj := c.SInverse(0, d)
		for s := uint64(1); s < n*n; s++ {
			i, j := c.SInverse(s, d)
			di, dj := int(i)-int(pi), int(j)-int(pj)
			if di*di+dj*dj != 1 {
				jumps++
			}
			pi, pj = i, j
		}
		if jumps == 0 {
			t.Errorf("%v: expected jumps, found none (curve is continuous?)", c)
		}
	}
}

// TestQuadrantContiguity verifies the property the whole paper rests on:
// under every recursive layout, each quadrant (at every scale) occupies a
// contiguous range of S values.
func TestQuadrantContiguity(t *testing.T) {
	for _, c := range RecursiveCurves {
		d := uint(4)
		n := uint32(1) << d
		// For every aligned power-of-two quadrant, min and max S must
		// span exactly the quadrant's area.
		for size := uint32(2); size <= n; size *= 2 {
			for i0 := uint32(0); i0 < n; i0 += size {
				for j0 := uint32(0); j0 < n; j0 += size {
					lo, hi := ^uint64(0), uint64(0)
					for i := i0; i < i0+size; i++ {
						for j := j0; j < j0+size; j++ {
							s := c.S(i, j, d)
							if s < lo {
								lo = s
							}
							if s > hi {
								hi = s
							}
						}
					}
					if hi-lo+1 != uint64(size)*uint64(size) {
						t.Fatalf("%v: quadrant (%d,%d) size %d spans [%d,%d], not contiguous",
							c, i0, j0, size, lo, hi)
					}
				}
			}
		}
	}
}

// TestSelfSimilarity verifies that the descent tables are consistent:
// the child at position p covers exactly the S range
// [p·k², (p+1)·k²) of its parent, in the child's orientation.
func TestSelfSimilarity(t *testing.T) {
	for _, c := range RecursiveCurves {
		for o := Orient(0); int(o) < c.Orientations(); o++ {
			d := uint(4)
			half := uint32(1) << (d - 1)
			area := uint64(half) * uint64(half)
			for p := 0; p < 4; p++ {
				q := c.QuadAt(o, p)
				co := c.ChildOrient(o, p)
				i0 := uint32(q>>1) * half
				j0 := uint32(q&1) * half
				for i := uint32(0); i < half; i++ {
					for j := uint32(0); j < half; j++ {
						parent := c.SOriented(o, i0+i, j0+j, d)
						child := c.SOriented(co, i, j, d-1)
						if parent != uint64(p)*area+child {
							t.Fatalf("%v o=%d p=%d: parent S=%d child S=%d", c, o, p, parent, child)
						}
					}
				}
			}
		}
	}
}

// TestGrayHalfStepSymmetry verifies the symmetry of Section 3.4 that the
// Gray-Morton pre-/post-additions exploit: if one orientation orders the
// tiles T_1..T_2k, the other orders them T_{k+1}..T_2k, T_1..T_k.
func TestGrayHalfStepSymmetry(t *testing.T) {
	for d := uint(1); d <= 6; d++ {
		n := 1 << d
		total := n * n
		half := total / 2
		perm := GrayMorton.Perm(1, 0, d)
		for s := 0; s < total; s++ {
			want := (s + half) % total
			if int(perm[s]) != want {
				t.Fatalf("d=%d: perm[%d] = %d, want %d (half-step symmetry)", d, s, perm[s], want)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	for _, c := range RecursiveCurves {
		k := c.Orientations()
		for from := 0; from < k; from++ {
			for to := 0; to < k; to++ {
				perm := c.Perm(Orient(from), Orient(to), 3)
				seen := make([]bool, len(perm))
				for _, v := range perm {
					if v < 0 || int(v) >= len(perm) || seen[v] {
						t.Fatalf("%v %d->%d: not a permutation", c, from, to)
					}
					seen[v] = true
				}
			}
		}
	}
}

func TestPermComposition(t *testing.T) {
	// Perm(a,b) followed by Perm(b,c) must equal Perm(a,c).
	c := Hilbert
	d := uint(3)
	for a := Orient(0); a < 4; a++ {
		for b := Orient(0); b < 4; b++ {
			for cc := Orient(0); cc < 4; cc++ {
				ab := c.Perm(a, b, d)
				bc := c.Perm(b, cc, d)
				ac := c.Perm(a, cc, d)
				for s := range ab {
					if bc[ab[s]] != ac[s] {
						t.Fatalf("composition fails at %d->%d->%d, s=%d", a, b, cc, s)
					}
				}
			}
		}
	}
}

func TestPermIdentity(t *testing.T) {
	for _, c := range RecursiveCurves {
		perm := c.Perm(OrientID, OrientID, 4)
		for s, v := range perm {
			if int(v) != s {
				t.Fatalf("%v: Perm(0,0) not identity at %d", c, s)
			}
		}
	}
}

// TestQuadAtPosOfInverse checks QuadAt/PosOf are mutually inverse for all
// curves and orientations.
func TestQuadAtPosOfInverse(t *testing.T) {
	for _, c := range Curves {
		for o := 0; o < c.Orientations(); o++ {
			for p := 0; p < 4; p++ {
				q := c.QuadAt(Orient(o), p)
				if c.PosOf(Orient(o), q) != p {
					t.Fatalf("%v o=%d: PosOf(QuadAt(%d)) != %d", c, o, p, p)
				}
			}
		}
	}
}

// TestLevelBitDependence verifies the computational-complexity claim of
// Section 3.4: for the single-orientation layouts, bits 2u+1 and 2u of
// S(i,j) depend only on bit u of i and j.
func TestLevelBitDependence(t *testing.T) {
	d := uint(6)
	for _, c := range []Curve{UMorton, XMorton, ZMorton} {
		if err := quick.Check(func(i1, j1, i2, j2 uint32) bool {
			mask := uint32(1)<<d - 1
			i1, j1, i2, j2 = i1&mask, j1&mask, i2&mask, j2&mask
			for u := uint(0); u < d; u++ {
				// Replace bit u of (i2,j2) with bit u of (i1,j1): the
				// S bit pair at level u must match S(i1,j1)'s pair.
				bi := i2&^(1<<u) | i1&(1<<u)
				bj := j2&^(1<<u) | j1&(1<<u)
				got := c.S(bi, bj, d) >> (2 * u) & 3
				want := c.S(i1, j1, d) >> (2 * u) & 3
				if got != want {
					return false
				}
			}
			return true
		}, nil); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

// TestGrayHigherBitDependence documents the converse for Gray-Morton:
// low S bits depend on high coordinate bits (Section 3.4).
func TestGrayHigherBitDependence(t *testing.T) {
	d := uint(2)
	// (0,0) vs (0,2): identical level-0 coordinate bits, but the level-0
	// S bit pair differs because Gray decoding propagates the flipped
	// high bit of j downward.
	a := GrayMorton.S(0, 0, d)
	b := GrayMorton.S(0, 2, d)
	if a&3 == b&3 {
		t.Errorf("Gray-Morton level-0 S pair should depend on high bits of j: S(0,0)=%d S(0,2)=%d", a, b)
	}
}

// TestLayoutNames pins every name a layout has been spelled by — flags,
// the wire and plan keys persist names, never ids — to the layout it
// parses to, and String's round trip; "" and "default" are the unset
// layout, which no other name reaches, and an unknown name is an error.
func TestLayoutNames(t *testing.T) {
	if _, err := ParseCurve("peano"); err == nil {
		t.Error("ParseCurve(peano) should fail")
	}
	for want, names := range map[Curve][]string{
		Default:    {"", "default"},
		ColMajor:   {"ColMajor", "c", "col", "colmajor"},
		RowMajor:   {"RowMajor", "r", "row", "rowmajor"},
		UMorton:    {"U-Morton", "u", "umorton"},
		XMorton:    {"X-Morton", "x", "xmorton"},
		ZMorton:    {"Z-Morton", "z", "zmorton", "morton"},
		GrayMorton: {"Gray-Morton", "g", "graymorton", "gray"},
		Hilbert:    {"Hilbert", "h", "hilbert"},
	} {
		for _, s := range names {
			if got, err := ParseCurve(s); err != nil || got != want {
				t.Errorf("ParseCurve(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
		if got, err := ParseCurve(want.String()); err != nil || got != want {
			t.Errorf("ParseCurve(%v.String()) = %v, %v", want, got, err)
		}
	}
	if Curve(0) != Default || len(Curves) != int(numCurves)-1 {
		t.Errorf("the zero Curve is %v; Curves lists %d of %d ids", Curve(0), len(Curves), numCurves)
	}
	for _, c := range Curves {
		if c == Default {
			t.Error("Curves lists the unset layout")
		}
	}
}

func TestOrientations(t *testing.T) {
	want := map[Curve]int{ColMajor: 1, RowMajor: 1, UMorton: 1, XMorton: 1,
		ZMorton: 1, GrayMorton: 2, Hilbert: 4}
	for c, w := range want {
		if got := c.Orientations(); got != w {
			t.Errorf("%v.Orientations() = %d, want %d", c, got, w)
		}
	}
}

func TestRecursive(t *testing.T) {
	for _, c := range RecursiveCurves {
		if !c.Recursive() {
			t.Errorf("%v.Recursive() = false", c)
		}
	}
	for _, c := range []Curve{ColMajor, RowMajor} {
		if c.Recursive() {
			t.Errorf("%v.Recursive() = true", c)
		}
	}
}

func BenchmarkS(b *testing.B) {
	for _, c := range Curves {
		b.Run(c.String(), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += c.S(uint32(i)&1023, uint32(i>>10)&1023, 10)
			}
			_ = sink
		})
	}
}

func BenchmarkSInverse(b *testing.B) {
	for _, c := range Curves {
		b.Run(c.String(), func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				x, y := c.SInverse(uint64(i)&(1<<20-1), 10)
				sink += x + y
			}
			_ = sink
		})
	}
}

func TestDilationHilbertContinuous(t *testing.T) {
	d := MeasureDilation(Hilbert, 5)
	if d.Jumps != 0 || d.MaxJump != 1 || d.AvgStep != 1 {
		t.Fatalf("Hilbert dilation = %+v, want a continuous walk", d)
	}
}

func TestDilationOrderingMatchesOrientationCount(t *testing.T) {
	// Section 3.4: jumps get less pronounced as orientations increase.
	depth := uint(6)
	z := MeasureDilation(ZMorton, depth)
	g := MeasureDilation(GrayMorton, depth)
	h := MeasureDilation(Hilbert, depth)
	if !(h.AvgStep < g.AvgStep && g.AvgStep < z.AvgStep) {
		t.Errorf("avg step ordering violated: H=%g G=%g Z=%g", h.AvgStep, g.AvgStep, z.AvgStep)
	}
	if !(h.MaxJump <= g.MaxJump && g.MaxJump <= z.MaxJump) {
		t.Errorf("max jump ordering violated: H=%d G=%d Z=%d", h.MaxJump, g.MaxJump, z.MaxJump)
	}
}

func TestDilationCanonicalFavorsOneAxis(t *testing.T) {
	// Section 3's dilation claim, quantified: the canonical layouts have
	// unit stretch along the favored axis and 2^d along the other (an
	// asymmetry ratio of 2^d), while every recursive layout keeps the
	// two directions within a factor of two of each other.
	depth := uint(5)
	n := float64(int(1) << depth)
	col := MeasureDilation(ColMajor, depth)
	if col.AvgRowStretch != 1 || col.AvgColStretch != n {
		t.Fatalf("ColMajor stretches = (%g,%g), want (1,%g)", col.AvgRowStretch, col.AvgColStretch, n)
	}
	row := MeasureDilation(RowMajor, depth)
	if row.AvgColStretch != 1 || row.AvgRowStretch != n {
		t.Fatalf("RowMajor stretches = (%g,%g)", row.AvgRowStretch, row.AvgColStretch)
	}
	if col.Asymmetry() != n {
		t.Fatalf("canonical asymmetry = %g, want %g", col.Asymmetry(), n)
	}
	for _, c := range RecursiveCurves {
		r := MeasureDilation(c, depth)
		if r.Asymmetry() > 2 {
			t.Errorf("%v asymmetry %g exceeds 2 (row %g, col %g)",
				c, r.Asymmetry(), r.AvgRowStretch, r.AvgColStretch)
		}
	}
}

func TestDilationMortonJumpCount(t *testing.T) {
	// Z-Morton at depth d jumps at every step that crosses a quadrant
	// boundary at any scale: exactly (4^d-1) - (number of unit steps).
	// Unit steps happen only inside 2x2 blocks (3 of every 4 steps at
	// the lowest level are... pinned empirically at small depth).
	d := MeasureDilation(ZMorton, 2)
	// Sequence of 15 steps in a 4x4 Z walk: known structure with 6 jumps
	// (after positions 1, 3, 5, 7, 9... verify: steps between s=1→2,
	// 3→4, 5→6, 7→8, 9→10, 11→12, 13→14 cross block boundaries).
	if d.Jumps != 7 {
		t.Errorf("Z-Morton depth-2 jumps = %d, want 7", d.Jumps)
	}
}
