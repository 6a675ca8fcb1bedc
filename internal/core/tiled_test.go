package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	for _, cv := range layout.RecursiveCurves {
		for _, dims := range [][4]int{
			{16, 16, 4, 4},  // exact
			{15, 13, 4, 4},  // padding both dims
			{10, 20, 3, 5},  // rectangular tiles
			{1, 1, 4, 4},    // single element
			{33, 17, 8, 16}, // asymmetric
		} {
			rows, cols, tr, tc := dims[0], dims[1], dims[2], dims[3]
			d := uint(0)
			for (tr<<d) < rows || (tc<<d) < cols {
				d++
			}
			src := matrix.Random(rows, cols, rng)
			tl := NewTiled(cv, d, tr, tc, rows, cols)
			tl.Pack(context.Background(), pool, src, false, 1)
			dst, err := asPlan(tl).Unpack(context.Background(), pool)
			if err != nil || !matrix.Equal(dst, src, 0) {
				t.Errorf("%v %v: pack/unpack round trip failed", cv, dims)
			}
		}
	}
}

func TestPackAtMatchesLayoutFunction(t *testing.T) {
	// Tiled.At must agree with direct evaluation of equation (3) — or,
	// on canonical storage, with the padded column-major panel — and Pack
	// must place every element where At expects it.
	pool := sched.NewPool(1)
	defer pool.Close()
	for _, cv := range mulCurves {
		rows, cols, tr, tc := 12, 10, 3, 4
		d := uint(2)
		src := matrix.Sequential(rows, cols)
		tl := NewTiled(cv, d, tr, tc, rows, cols)
		tl.Pack(context.Background(), pool, src, false, 1)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if tl.At(i, j) != src.At(i, j) {
					t.Fatalf("%v: At(%d,%d) = %g, want %g", cv, i, j, tl.At(i, j), src.At(i, j))
				}
			}
		}
	}
}

// TestTileWalksMatchLayoutFunction pins every conversion walk to the
// layout function (Tiled.At): pack of a transposed source scaled by
// α ≠ 1, unpackAccumulate at β = 0 and β = 1, and the in-layout
// transpose, on all six curves (the transpose on the five recursive
// ones: it refuses canonical storage), at depths 0–5, on shapes whose
// last tile row and column are fringes. Every grid holds at least
// ewParMin elements and runs on two workers with the library's ewMin,
// so the walks run in chunks over the pool.
func TestTileWalksMatchLayoutFunction(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	run := func(f func(e *exec, c *sched.Ctx)) {
		e := &exec{serialCutoff: 4, ewMin: ewParMin}
		if _, _, err := pool.Run(func(c *sched.Ctx) { f(e, c) }); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(21))
	const alpha = -1.5
	for _, cv := range mulCurves {
		for d := uint(0); d <= 5; d++ {
			side := 1 << d
			tr, tc := 256>>d+1, 256>>d+3
			rows, cols := side*tr-tr/2, side*tc-1
			tl := NewTiled(cv, d, tr, tc, rows, cols)
			if tl.elems() < ewParMin {
				t.Fatalf("%v depth %d: %d elements, under ewParMin", cv, d, tl.elems())
			}
			src := matrix.New(cols, rows) // holds the transpose of the logical matrix
			for i := range src.Data {
				src.Data[i] = 1 + rng.Float64()
			}
			for i := range tl.Data {
				tl.Data[i] = math.NaN() // padding pack leaves unwritten shows
			}
			run(func(e *exec, c *sched.Ctx) { tl.pack(e, c, src, true, alpha) })
			nonzero := 0
			for _, v := range tl.Data {
				if v != 0 {
					nonzero++
				}
			}
			if nonzero != rows*cols {
				t.Fatalf("%v depth %d: pack left %d nonzero elements for %d logical ones", cv, d, nonzero, rows*cols)
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if got, want := tl.At(i, j), alpha*src.At(j, i); got != want {
						t.Fatalf("%v depth %d: pack put %g at (%d,%d), want %g", cv, d, got, i, j, want)
					}
				}
			}

			for _, beta := range []float64{0, 1} {
				dst := matrix.New(rows, cols)
				for i := range dst.Data {
					dst.Data[i] = rng.Float64()
				}
				prior := dst.Clone()
				if beta == 0 {
					for i := range dst.Data {
						dst.Data[i] = math.NaN() // β = 0 reads no C
					}
				}
				run(func(e *exec, c *sched.Ctx) { tl.unpackAccumulate(e, c, dst, alpha, beta) })
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						want := alpha * tl.At(i, j)
						if beta == 1 {
							want = prior.At(i, j) + alpha*tl.At(i, j)
						}
						if got := dst.At(i, j); got != want {
							t.Fatalf("%v depth %d β=%g: unpack put %g at (%d,%d), want %g", cv, d, beta, got, i, j, want)
						}
					}
				}
			}

			if cv == layout.ColMajor {
				continue
			}
			tt := NewTiled(cv, d, tc, tr, cols, rows)
			run(func(e *exec, c *sched.Ctx) { tt.packTransposeOf(e, c, tl) })
			for i := 0; i < cols; i++ {
				for j := 0; j < rows; j++ {
					if got, want := tt.At(i, j), tl.At(j, i); got != want {
						t.Fatalf("%v depth %d: transpose put %g at (%d,%d), want %g", cv, d, got, i, j, want)
					}
				}
			}
		}
	}
}

func TestPackTransposeAndScale(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	src := matrix.Random(9, 14, rng)
	tl := NewTiled(layout.ZMorton, 2, 4, 3, 14, 9) // holds srcᵀ
	tl.Pack(context.Background(), pool, src, true, -2)
	for i := 0; i < 14; i++ {
		for j := 0; j < 9; j++ {
			if tl.At(i, j) != -2*src.At(j, i) {
				t.Fatalf("transposed pack wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestPackZeroPadding(t *testing.T) {
	// Every element outside the logical region must be exactly zero
	// (the algorithms blindly compute on the padding).
	pool := sched.NewPool(1)
	defer pool.Close()
	rows, cols := 5, 6
	tl := NewTiled(layout.Hilbert, 2, 2, 2, rows, cols)
	src := matrix.Random(rows, cols, rand.New(rand.NewSource(3)))
	// Poison the buffer first to catch unwritten padding.
	for i := range tl.Data {
		tl.Data[i] = 99
	}
	tl.Pack(context.Background(), pool, src, false, 1)
	side := 1 << tl.D
	for ti := 0; ti < side; ti++ {
		for tj := 0; tj < side; tj++ {
			s := int(tl.Curve.S(uint32(ti), uint32(tj), tl.D))
			for jj := 0; jj < tl.TC; jj++ {
				for ii := 0; ii < tl.TR; ii++ {
					gi, gj := ti*tl.TR+ii, tj*tl.TC+jj
					v := tl.Data[s*tl.TR*tl.TC+jj*tl.TR+ii]
					if gi >= rows || gj >= cols {
						if v != 0 {
							t.Fatalf("padding at (%d,%d) = %g, want 0", gi, gj, v)
						}
					} else if v != src.At(gi, gj) {
						t.Fatalf("element (%d,%d) = %g, want %g", gi, gj, v, src.At(gi, gj))
					}
				}
			}
		}
	}
}

func TestQuadDescentContiguity(t *testing.T) {
	// Descending the Mat quadrant tree must visit the same storage the
	// layout function assigns: the NW quadrant's first tile is the tile
	// whose S-number equals the quadrant's base position.
	for _, cv := range layout.RecursiveCurves {
		tl := NewTiled(cv, 3, 2, 2, 16, 16)
		// Stamp each tile with its own index.
		ts := tl.TR * tl.TC
		for s := 0; s < 64; s++ {
			for e := 0; e < ts; e++ {
				tl.Data[s*ts+e] = float64(s)
			}
		}
		m := tl.Mat()
		// Walk to the tile at tile-coordinates (5, 6) via quadrants.
		ti, tj := 5, 6
		cur := m
		for cur.tiles > 1 {
			half := cur.tiles / 2
			qi, qj := 0, 0
			if ti >= half {
				qi = 1
				ti -= half
			}
			if tj >= half {
				qj = 1
				tj -= half
			}
			cur = cur.quad(qi<<1 | qj)
		}
		want := float64(cv.S(5, 6, 3))
		if cur.data[0] != want {
			t.Errorf("%v: descent reached tile %g, S says %g", cv, cur.data[0], want)
		}
	}
}

func TestQuadDescentCanonical(t *testing.T) {
	// For canonical storage the descent is offset arithmetic.
	d := matrix.Sequential(16, 16)
	m := Mat{data: d.Data, tiles: 4, tr: 4, tc: 4, ld: 16, curve: layout.ColMajor}
	se := m.quad(layout.QuadSE).quad(layout.QuadNW)
	// SE quadrant starts at (8,8); its NW sub-quadrant is the tile at
	// (8,8) of the original.
	if se.data[0] != d.At(8, 8) {
		t.Fatalf("canonical descent wrong: got %g want %g", se.data[0], d.At(8, 8))
	}
	if se.leafLD() != 16 {
		t.Fatalf("canonical leaf leading dimension = %d, want 16", se.leafLD())
	}
}

func TestMatEWOrientationAlignment(t *testing.T) {
	// Adding two quadrants with different orientations must combine
	// geometrically corresponding tiles (the Section 4 pre-addition
	// issue). Build a Gray-Morton matrix, take NW (orient 0) and NE
	// (orient 1) quadrants, add them into a temp, and check element-wise
	// against the dense equivalent.
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(4))
	for _, cv := range []layout.Curve{layout.GrayMorton, layout.Hilbert} {
		src := matrix.Random(16, 16, rng)
		tl := NewTiled(cv, 3, 2, 2, 16, 16)
		tl.Pack(context.Background(), pool, src, false, 1)
		m := tl.Mat()
		nw, ne := m.quad(layout.QuadNW), m.quad(layout.QuadNE)
		if cv.Orientations() > 1 && nw.orient == ne.orient {
			t.Fatalf("%v: expected differing quadrant orientations", cv)
		}
		tmp := (&exec{}).newTemp(&sched.Ctx{}, nw)
		matEW3(tmp, nw, ne, vAdd)
		// Reconstruct: tmp is an 8x8 tiled quadrant in OrientID; read it
		// back tile by tile via the oriented S function.
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				s := int(cv.SOriented(tmp.orient, uint32(i/2), uint32(j/2), 2))
				got := tmp.data[s*4+(j%2)*2+i%2]
				want := src.At(i, j) + src.At(i, j+8)
				if got != want {
					t.Fatalf("%v: (%d,%d) = %g, want %g", cv, i, j, got, want)
				}
			}
		}
	}
}

func TestTileIndexMapGrayMatchesPerm(t *testing.T) {
	// The additions between Gray-Morton operands of orientations 0 and 1
	// find each grid tile through its operand's own address table; the
	// tile they pair with position s of the first must be the one Perm
	// puts there.
	a := Mat{tiles: 8, tr: 2, tc: 2, curve: layout.GrayMorton, orient: 0}
	b := a
	b.orient = 1
	aa, ab := addrOf(a, 3), addrOf(b, 3)
	perm := layout.GrayMorton.Perm(0, 1, 3)
	ts := a.tileElems()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			s, sb := aa.at(i, j)/ts, ab.at(i, j)/ts
			if sb != int(perm[s]) {
				t.Fatalf("tile (%d,%d): address tables pair %d with %d, Perm with %d", i, j, s, sb, perm[s])
			}
		}
	}
}

func TestMulTiledMatchesGEMM(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	n := 32
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)

	for _, cv := range layout.RecursiveCurves {
		ta := NewTiled(cv, 3, 4, 4, n, n)
		ta.Pack(context.Background(), pool, A, false, 1)
		tb := NewTiled(cv, 3, 4, 4, n, n)
		tb.Pack(context.Background(), pool, B, false, 1)
		tc := NewTiled(cv, 3, 4, 4, n, n)
		if _, err := MulPrepacked(context.Background(), pool, Options{Alg: Winograd}, asPlan(tc), asPlan(ta), asPlan(tb)); err != nil {
			t.Fatal(err)
		}
		got, err := asPlan(tc).Unpack(context.Background(), pool)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, 1e-11) {
			t.Errorf("%v: MulPrepacked wrong (max diff %g)", cv, matrix.MaxAbsDiff(got, want))
		}
	}
}

// TestMulTiledValidation: plans never pass conform, so MulPrepacked
// checks them itself — layout, depth, tile shapes and the logical
// extents under the padding, of one-block plans here — and answers
// ErrDimension.
func TestMulTiledValidation(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	z := func(d uint, tr, tc, rows, cols int) *Tiled { return NewTiled(layout.ZMorton, d, tr, tc, rows, cols) }
	a, c := z(2, 4, 4, 16, 16), z(2, 4, 4, 16, 16)
	for _, tc := range []struct {
		what    string
		c, a, b *Tiled
	}{
		{"curve mismatch", c, a, NewTiled(layout.Hilbert, 2, 4, 4, 16, 16)},
		{"depth mismatch", c, a, z(3, 4, 4, 32, 32)},
		{"tile shapes that do not conform", c, a, z(2, 5, 4, 20, 16)},
		{"A with 16 columns against B with 10 rows on the same tiles", c, a, z(2, 4, 4, 10, 16)},
		{"C with 12 rows for a 16-row product", z(2, 4, 4, 12, 16), a, z(2, 4, 4, 16, 16)},
		{"C on other tiles", z(2, 4, 8, 16, 16), a, z(2, 4, 4, 16, 16)},
		{"nil A", c, nil, a},
		{"nil C", nil, a, a},
	} {
		_, err := MulPrepacked(context.Background(), pool, Options{}, asPlan(tc.c), asPlan(tc.a), asPlan(tc.b))
		if !errors.Is(err, ErrDimension) {
			t.Errorf("%s: err = %v, want ErrDimension", tc.what, err)
		}
		// Packed operands are plans: PrepackConforming is the remedy.
		if msg := fmt.Sprint(err); tc.what == "depth mismatch" && (!strings.Contains(msg, "depth 2") || !strings.Contains(msg, "depth 3") || !strings.Contains(msg, "PrepackConforming")) {
			t.Errorf("%s: %q does not name both depths and the plan call that conforms", tc.what, msg)
		}
	}
}

func TestPackParallelMatchesSerial(t *testing.T) {
	big := sched.NewPool(4)
	defer big.Close()
	one := sched.NewPool(1)
	defer one.Close()
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		tr, tc := 1+rng.Intn(6), 1+rng.Intn(6)
		d := uint(0)
		for (tr<<d) < rows || (tc<<d) < cols {
			d++
		}
		cv := layout.RecursiveCurves[rng.Intn(len(layout.RecursiveCurves))]
		src := matrix.Random(rows, cols, rng)
		t1 := NewTiled(cv, d, tr, tc, rows, cols)
		t1.Pack(context.Background(), big, src, false, 1)
		t2 := NewTiled(cv, d, tr, tc, rows, cols)
		t2.Pack(context.Background(), one, src, false, 1)
		for i := range t1.Data {
			if t1.Data[i] != t2.Data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNewTiledTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized tiled allocation should panic")
		}
	}()
	NewTiled(layout.ZMorton, 1, 2, 2, 100, 100)
}
