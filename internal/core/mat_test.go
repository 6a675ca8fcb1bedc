package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func TestMatQuadPanicsOnLeaf(t *testing.T) {
	m := Mat{data: make([]float64, 4), tiles: 1, tr: 2, tc: 2, curve: layout.ZMorton}
	defer func() {
		if recover() == nil {
			t.Fatal("quad on a leaf Mat should panic")
		}
	}()
	m.quad(layout.QuadNW)
}

func TestMatDensePanicsOnTiled(t *testing.T) {
	m := Mat{data: make([]float64, 4), tiles: 1, tr: 2, tc: 2, curve: layout.ZMorton}
	defer func() {
		if recover() == nil {
			t.Fatal("dense view of tiled Mat should panic")
		}
	}()
	m.dense()
}

func TestMatGeometryMismatchPanics(t *testing.T) {
	a := Mat{data: make([]float64, 16), tiles: 2, tr: 2, tc: 2, curve: layout.ZMorton}
	b := Mat{data: make([]float64, 36), tiles: 2, tr: 3, tc: 3, curve: layout.ZMorton}
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch should panic")
		}
	}()
	matEW2(a, b, vAcc)
}

func TestMatMixedStoragePanics(t *testing.T) {
	tiled := Mat{data: make([]float64, 16), tiles: 2, tr: 2, tc: 2, curve: layout.ZMorton}
	canon := Mat{data: make([]float64, 16), tiles: 2, tr: 2, tc: 2, ld: 4, curve: layout.ColMajor}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed storage should panic")
		}
	}()
	matEW2(tiled, canon, vAcc)
}

func TestMatCrossCurvePanics(t *testing.T) {
	a := Mat{data: make([]float64, 16), tiles: 2, tr: 2, tc: 2, curve: layout.ZMorton}
	b := Mat{data: make([]float64, 16), tiles: 2, tr: 2, tc: 2, curve: layout.Hilbert}
	defer func() {
		if recover() == nil {
			t.Fatal("an element-wise op across curves should panic")
		}
	}()
	matEW2(a, b, vAcc)
}

func TestNewTempCanonicalHalvesLD(t *testing.T) {
	// Section 5.1: temporaries of the fast algorithms are contiguous,
	// so their leading dimension equals the quadrant extent, not n.
	parent := Mat{data: make([]float64, 64*64), tiles: 4, tr: 16, tc: 16, ld: 64, curve: layout.ColMajor}
	q := parent.quad(layout.QuadNW)
	tmp := (&exec{}).newTemp(&sched.Ctx{}, q)
	if tmp.ld != 32 {
		t.Fatalf("temp ld = %d, want 32 (quadrant rows)", tmp.ld)
	}
	if q.ld != 64 {
		t.Fatalf("quadrant view ld = %d, want parent's 64", q.ld)
	}
}

func TestNewTempTiledReferenceOrientation(t *testing.T) {
	m := Mat{data: make([]float64, 64), tiles: 4, tr: 1, tc: 1, curve: layout.Hilbert, orient: layout.OrientAT}
	tmp := (&exec{}).newTemp(&sched.Ctx{}, m)
	if tmp.orient != layout.OrientID {
		t.Fatalf("temp orientation = %d, want reference", tmp.orient)
	}
	if len(tmp.data) != m.elems() {
		t.Fatalf("temp size = %d, want %d", len(tmp.data), m.elems())
	}
}

func TestIntegerExactness(t *testing.T) {
	// With small integer inputs every algorithm's arithmetic is exact in
	// float64 (no rounding anywhere), so all algorithms must agree bit
	// for bit — a sharp test that no path drops or duplicates a term.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))
	n := 48
	A, B := matrix.New(n, n), matrix.New(n, n)
	for i := range A.Data {
		A.Data[i] = float64(rng.Intn(7) - 3)
		B.Data[i] = float64(rng.Intn(7) - 3)
	}
	want := matrix.New(n, n)
	matrix.RefMulAdd(want, A, B)
	for _, alg := range Algs {
		for _, cv := range mulCurves {
			C := matrix.New(n, n)
			opts := Options{Curve: cv, Alg: alg, Tile: testTile}
			if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(C, want, 0) {
				t.Errorf("%v/%v: integer product not exact (max diff %g)",
					alg, cv, matrix.MaxAbsDiff(C, want))
			}
		}
	}
}

func TestNaNPropagates(t *testing.T) {
	// Failure injection: a NaN in the input must surface in the output,
	// never be silently dropped by a padding or layout bug.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	n := 24
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	A.Set(7, 11, math.NaN())
	for _, alg := range Algs {
		for _, cv := range []layout.Curve{layout.ColMajor, layout.Hilbert} {
			C := matrix.New(n, n)
			opts := Options{Curve: cv, Alg: alg, Tile: testTile}
			if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
				t.Fatal(err)
			}
			if !C.HasNaN() {
				t.Errorf("%v/%v: NaN vanished", alg, cv)
			}
		}
	}
}

func TestFastAlgorithmAccuracy(t *testing.T) {
	// The fast algorithms lose accuracy relative to the standard sum,
	// but on well-scaled random inputs the error must stay within a few
	// orders of magnitude of machine epsilon times k (Higham's bounds
	// are polynomial in n; this is a sanity band, not a tight bound).
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(6))
	n := 96
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	matrix.RefMulAdd(want, A, B)
	for _, alg := range []Alg{Strassen, Winograd} {
		C := matrix.New(n, n)
		opts := Options{Curve: layout.ZMorton, Alg: alg, Tile: testTile}
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			t.Fatal(err)
		}
		diff := matrix.MaxAbsDiff(C, want)
		if diff > 1e-11 {
			t.Errorf("%v: error %g too large", alg, diff)
		}
		if diff == 0 {
			// Astronomically unlikely for real Strassen arithmetic on
			// random floats; zero would suggest the standard path ran.
			t.Errorf("%v: suspiciously exact result", alg)
		}
	}
}

func TestStrassenWinogradAgree(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	cs := matrix.New(n, n)
	cw := matrix.New(n, n)
	if _, err := GEMM(pool, Options{Curve: layout.GrayMorton, Alg: Strassen, Tile: testTile},
		false, false, 1, A, B, 0, cs); err != nil {
		t.Fatal(err)
	}
	if _, err := GEMM(pool, Options{Curve: layout.GrayMorton, Alg: Winograd, Tile: testTile},
		false, false, 1, A, B, 0, cw); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(cs, cw, 1e-11) {
		t.Fatalf("Strassen and Winograd disagree: %g", matrix.MaxAbsDiff(cs, cw))
	}
}

// TestTileCoordsMatchesSInverse pins the memoized position tables — the
// one way the engine finds a tile's coordinates below the recursion —
// against the oriented curve walk, on every recursive curve, in every
// orientation, at depths 0–5, and checks that a second lookup shares the
// first's table: a caller that wrote into one would corrupt every later
// walk.
func TestTileCoordsMatchesSInverse(t *testing.T) {
	for _, cv := range layout.RecursiveCurves {
		for o := layout.Orient(0); int(o) < cv.Orientations(); o++ {
			for d := uint(0); d <= 5; d++ {
				pos := posFor(cv, o, d)
				if len(pos) != 1<<(2*d) {
					t.Fatalf("%v orientation %d depth %d: %d entries", cv, o, d, len(pos))
				}
				for s := range pos {
					i, j := cv.SInverseOriented(o, uint64(s), d)
					if got := pos[int(i)<<d|int(j)]; got != int32(s) {
						t.Fatalf("%v orientation %d depth %d: tile (%d,%d) at %d, the curve puts it at %d", cv, o, d, i, j, got, s)
					}
				}
				if again := posFor(cv, o, d); &again[0] != &pos[0] {
					t.Fatalf("%v orientation %d depth %d: table not memoized", cv, o, d)
				}
			}
		}
	}
}

// TestPermCacheStability: the memoized tables of two orientations of one
// curve relate as layout.Curve.Perm says — the tile at position s in
// orientation 0 sits at Perm(0, o)[s] in orientation o — and repeated
// lookups, in any order, keep returning the same unaltered tables.
func TestPermCacheStability(t *testing.T) {
	const d = 3
	for _, cv := range []layout.Curve{layout.GrayMorton, layout.Hilbert} {
		base := posFor(cv, 0, d)
		fresh := append([]int32(nil), base...)
		for o := layout.Orient(1); int(o) < cv.Orientations(); o++ {
			pos := posFor(cv, o, d)
			perm := cv.Perm(0, o, d)
			for g := range pos {
				if pos[g] != perm[base[g]] {
					t.Fatalf("%v orientation %d: tile %d at %d, Perm puts it at %d", cv, o, g, pos[g], perm[base[g]])
				}
			}
		}
		again := posFor(cv, 0, d)
		if &again[0] != &base[0] {
			t.Fatalf("%v: table not memoized", cv)
		}
		for g := range again {
			if again[g] != fresh[g] {
				t.Fatalf("%v: cached table changed at %d", cv, g)
			}
		}
	}
}

// TestTileScheduleIsRecursionOrder: the serial base visits a quadrant's
// leaves in the order the recursion to single tiles does, and finds
// every tile where quad's descent finds it — on every curve the driver
// accepts, in every orientation the curve has, at depths 0–6. A, B and
// C have distinct tile shapes, so a swapped coordinate shows.
func TestTileScheduleIsRecursionOrder(t *testing.T) {
	type trio [3]int
	var C, A, B Mat
	var got, want []trio
	off := func(m Mat, sub []float64) int { return cap(m.data) - cap(sub) }
	e := &exec{kernel: leaf.Impl{Scratch: func(_ *leaf.Scratch, _, _, _ int, a []float64, _ int, b []float64, _ int, c []float64, _ int) {
		got = append(got, trio{off(C, c), off(A, a), off(B, b)})
	}}}
	// std's two rounds: (C, A, B) quadrants of each product in turn.
	rounds := [8][3]int{
		{layout.QuadNW, layout.QuadNW, layout.QuadNW}, {layout.QuadNE, layout.QuadNW, layout.QuadNE},
		{layout.QuadSW, layout.QuadSW, layout.QuadNW}, {layout.QuadSE, layout.QuadSW, layout.QuadNE},
		{layout.QuadNW, layout.QuadNE, layout.QuadSW}, {layout.QuadNE, layout.QuadNE, layout.QuadSE},
		{layout.QuadSW, layout.QuadSE, layout.QuadSW}, {layout.QuadSE, layout.QuadSE, layout.QuadSE},
	}
	var walk func(c, a, b Mat)
	walk = func(c, a, b Mat) {
		if c.tiles == 1 {
			want = append(want, trio{off(C, c.data), off(A, a.data), off(B, b.data)})
			return
		}
		for _, r := range rounds {
			walk(c.quad(r[0]), a.quad(r[1]), b.quad(r[2]))
		}
	}
	for _, cv := range mulCurves {
		for o := 0; o < cv.Orientations(); o++ {
			for d := uint(0); d <= 6; d++ {
				s := 1 << d
				mk := func(tr, tc int) Mat {
					m := Mat{data: make([]float64, s*s*tr*tc), tiles: s, tr: tr, tc: tc, curve: cv, orient: layout.Orient(o)}
					if cv == layout.ColMajor {
						m.ld = s * tr
					}
					return m
				}
				C, A, B = mk(2, 3), mk(2, 5), mk(5, 3)
				got, want = got[:0], want[:0]
				walk(C, A, B)
				e.base(&sched.Ctx{}, C, A, B, false)
				if len(got) != len(want) {
					t.Fatalf("%v orientation %d depth %d: %d leaves, recursion visits %d", cv, o, d, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v orientation %d depth %d: leaf %d at (C, A, B) offsets %v, recursion at %v", cv, o, d, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestLog2Tiles(t *testing.T) {
	cases := map[int]uint{1: 0, 2: 1, 4: 2, 64: 6, 1024: 10}
	for in, want := range cases {
		if got := log2tiles(in); got != want {
			t.Errorf("log2tiles(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestParseAlg(t *testing.T) {
	for _, a := range Algs {
		got, err := ParseAlg(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlg(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlg("coppersmith"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Section 5's space-conserving variant is Strassen run serially; its
	// old name is an alias.
	if got, err := ParseAlg("strassen-lowmem"); err != nil || got != Strassen {
		t.Errorf(`ParseAlg("strassen-lowmem") = %v, %v, want strassen`, got, err)
	}
}

func TestVectorKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	dst := make([]float64, 3)
	vAdd(dst, a, b)
	if dst[2] != 33 {
		t.Fatal("vAdd wrong")
	}
	vSub(dst, b, a)
	if dst[0] != 9 {
		t.Fatal("vSub wrong")
	}
	vAcc(dst, a)
	if dst[1] != 20 {
		t.Fatal("vAcc wrong")
	}
	vDec(dst, a)
	if dst[1] != 18 {
		t.Fatal("vDec wrong")
	}
	vCopy(dst, b)
	if dst[0] != 10 {
		t.Fatal("vCopy wrong")
	}
	vZero(dst)
	if dst[0] != 0 || dst[2] != 0 {
		t.Fatal("vZero wrong")
	}
}

// BenchmarkEWOrientations times the additions that cross orientations —
// a reference-orientation temporary from two quadrants laid out in other
// orientations, as the fast algorithms' pre-additions under Gray-Morton
// and Hilbert make them — on 4×4, 8×8 and 16×16 grids of 2×2, 16×16 and
// 32×32 tiles. No workload of the repository benchmark crosses
// orientations (they run Z-Morton), so this is the passes' only timing:
//
//	go test -run '^$' -bench EWOrientations ./internal/core
func BenchmarkEWOrientations(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, cv := range []layout.Curve{layout.GrayMorton, layout.Hilbert} {
		oa, ob := layout.Orient(1), layout.Orient(1) // Gray-Morton's rotated orientation
		if cv == layout.Hilbert {
			oa, ob = layout.OrientT, layout.OrientAT
		}
		for _, tiles := range []int{4, 8, 16} {
			for _, ts := range []int{2, 16, 32} {
				mk := func(o layout.Orient) Mat {
					m := Mat{tiles: tiles, tr: ts, tc: ts, curve: cv, orient: o}
					m.data = make([]float64, m.elems())
					fillRand(m.data, rng)
					return m
				}
				dst, x, y := mk(layout.OrientID), mk(oa), mk(ob)
				e, c := new(exec), &sched.Ctx{}
				b.Run(fmt.Sprintf("%v/%dx%d/tile%d", cv, tiles, tiles, ts), func(b *testing.B) {
					b.SetBytes(int64(3 * 8 * dst.elems()))
					for range b.N {
						e.ew3(c, dst, x, y, vAdd)
					}
				})
			}
		}
	}
}
