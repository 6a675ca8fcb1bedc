package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
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

func TestTileIndexMapCrossCurvePanics(t *testing.T) {
	a := Mat{tiles: 2, tr: 2, tc: 2, curve: layout.ZMorton}
	b := Mat{tiles: 2, tr: 2, tc: 2, curve: layout.Hilbert}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-curve tile map should panic")
		}
	}()
	tileIndexMap(a, b)
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

func TestPermCacheStability(t *testing.T) {
	// Memoized permutations must be identical across lookups (and safe
	// to share); mutating a cached slice would corrupt later additions.
	a := permFor(layout.Hilbert, 0, 2, 3)
	b := permFor(layout.Hilbert, 0, 2, 3)
	if &a[0] != &b[0] {
		t.Fatal("perm cache did not memoize")
	}
	want := layout.Hilbert.Perm(0, 2, 3)
	for i := range a {
		if a[i] != want[i] {
			t.Fatal("cached perm differs from fresh computation")
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
