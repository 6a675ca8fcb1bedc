package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// testTile uses small tiles so that even modest test matrices exercise
// several levels of recursion.
var testTile = tile.Config{TMin: 4, TMax: 16, TSweet: 8, PadSlack: 0.05}

// avx2Class is an AVX2+FMA leaf's leaf.Impl.Balance: on 32³ tiles the
// rule puts its crossover at 32 tiles a side, the lower levels lose.
const avx2Class = 3.4

// useCutoff makes every default fast cutoff of the test resolve to c.
func useCutoff(t *testing.T, c int) {
	useRule(t, func(leaf.Impl, int, int, int, int, int, int) int { return c })
}

// useBalance makes every default fast cutoff of the test the rule's for
// a kernel family of balance b, whatever kernel the host plans.
func useBalance(t *testing.T, b float64) {
	useRule(t, func(_ leaf.Impl, m, n, k, n3, n2, zero int) int {
		return leaf.FastCutoff(leaf.Impl{Balance: b}, m, n, k, n3, n2, zero)
	})
}

func useRule(t *testing.T, rule func(leaf.Impl, int, int, int, int, int, int) int) {
	old := fastCutoff
	fastCutoff = rule
	t.Cleanup(func() { fastCutoff = old })
}

// TestMain is the one shared test default for the fast cutoff: a test
// that names a fast algorithm means to exercise its recursion (arena
// sizing, allocation pins, fault injection, MemBudget ladders), so the
// default cutoff is the paper's 1 on every host unless the test
// installs another rule.
func TestMain(m *testing.M) {
	fastCutoff = func(leaf.Impl, int, int, int, int, int, int) int { return 1 }
	os.Exit(m.Run())
}

// mulCurves are the curves the multiplication driver accepts.
var mulCurves = []layout.Curve{
	layout.ColMajor, layout.UMorton, layout.XMorton,
	layout.ZMorton, layout.GrayMorton, layout.Hilbert,
}

// tol scales the comparison tolerance with problem size; Strassen-type
// algorithms lose a few digits relative to the naive sum.
func tol(m, k, n int) float64 {
	return 1e-10 * float64(k)
}

func TestGEMMCrossProduct(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{1, 1, 1},    // degenerate
		{7, 7, 7},    // single tile
		{16, 16, 16}, // exactly one tile at TMax
		{33, 29, 37}, // padding in all three dimensions
		{64, 64, 64}, // perfect power of two
		{60, 72, 48}, // rectangular with distinct tiles
	}
	for _, alg := range Algs {
		for _, cv := range mulCurves {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				A := matrix.Random(m, k, rng)
				B := matrix.Random(k, n, rng)
				C := matrix.Random(m, n, rng)
				want := C.Clone()
				matrix.RefGEMM(false, false, 1, A, B, 0, want)

				got := C.Clone()
				opts := Options{Curve: cv, Alg: alg, Tile: testTile}
				if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, got); err != nil {
					t.Fatalf("%v/%v %v: %v", alg, cv, sh, err)
				}
				if !matrix.Equal(got, want, tol(m, k, n)) {
					t.Errorf("%v/%v %v: max diff %g", alg, cv, sh, matrix.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

func TestGEMMTransposesAndScalars(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	m, k, n := 40, 24, 56
	for _, alg := range Algs {
		for _, cv := range mulCurves {
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					A := matrix.Random(m, k, rng)
					if ta {
						A = matrix.Random(k, m, rng)
					}
					B := matrix.Random(k, n, rng)
					if tb {
						B = matrix.Random(n, k, rng)
					}
					C := matrix.Random(m, n, rng)
					want := C.Clone()
					matrix.RefGEMM(ta, tb, -1.5, A, B, 0.25, want)

					got := C.Clone()
					opts := Options{Curve: cv, Alg: alg, Tile: testTile}
					if _, err := GEMM(pool, opts, ta, tb, -1.5, A, B, 0.25, got); err != nil {
						t.Fatalf("%v/%v ta=%v tb=%v: %v", alg, cv, ta, tb, err)
					}
					if !matrix.Equal(got, want, tol(m, k, n)) {
						t.Errorf("%v/%v ta=%v tb=%v: max diff %g",
							alg, cv, ta, tb, matrix.MaxAbsDiff(got, want))
					}
				}
			}
		}
	}
}

func TestGEMMWideLeanShapes(t *testing.T) {
	// Shapes that trigger the Figure 3 submatrix decomposition.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{300, 20, 20},  // wide A
		{20, 300, 20},  // lean A, wide B
		{20, 20, 300},  // lean B
		{256, 16, 200}, // mixed
	}
	for _, cv := range []layout.Curve{layout.ColMajor, layout.ZMorton, layout.Hilbert} {
		for _, alg := range []Alg{Standard, Strassen} {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				A := matrix.Random(m, k, rng)
				B := matrix.Random(k, n, rng)
				C := matrix.Random(m, n, rng)
				want := C.Clone()
				matrix.RefGEMM(false, false, 2, A, B, -1, want)

				got := C.Clone()
				opts := Options{Curve: cv, Alg: alg, Tile: testTile}
				st, err := GEMM(pool, opts, false, false, 2, A, B, -1, got)
				if err != nil {
					t.Fatalf("%v/%v %v: %v", alg, cv, sh, err)
				}
				if !matrix.Equal(got, want, tol(m, k, n)) {
					t.Errorf("%v/%v %v: max diff %g", alg, cv, sh, matrix.MaxAbsDiff(got, want))
				}
				if st.Blocks < 2 {
					t.Errorf("%v/%v %v: expected splitting, got %d block(s)", alg, cv, sh, st.Blocks)
				}
			}
		}
	}
}

func TestGEMMElementLevelTiles(t *testing.T) {
	// ForceTile=1 reproduces the Frens-Wise element-level recursion.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(13))
	A := matrix.Random(16, 16, rng)
	B := matrix.Random(16, 16, rng)
	for _, cv := range mulCurves {
		C := matrix.New(16, 16)
		want := matrix.New(16, 16)
		matrix.RefGEMM(false, false, 1, A, B, 0, want)
		opts := Options{Curve: cv, Alg: Standard, ForceTile: 1, Tile: testTile}
		st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(C, want, 1e-12) {
			t.Errorf("%v: element-level recursion wrong", cv)
		}
		if st.TileM != 1 || st.Depth != 4 {
			t.Errorf("%v: tile=%d depth=%d, want 1 and 4", cv, st.TileM, st.Depth)
		}
	}
}

func TestGEMMForceTileSweep(t *testing.T) {
	// The Figure 4 knob: every forced tile size gives the same product.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(17))
	n := 48
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	for _, ft := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 48} {
		C := matrix.New(n, n)
		opts := Options{Curve: layout.ZMorton, Alg: Standard, ForceTile: ft}
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(C, want, 1e-11) {
			t.Errorf("ForceTile=%d: wrong product", ft)
		}
	}
}

func TestGEMMAlphaZeroShortCircuit(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.New(8, 8)
	A.Set(0, 0, math.NaN())
	C := matrix.Sequential(8, 8)
	want := matrix.Sequential(8, 8)
	want.Scale(2)
	if _, err := GEMM(pool, Options{Curve: layout.ZMorton}, false, false, 0, A, A, 2, C); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(C, want, 0) {
		t.Fatal("alpha=0 should reduce to C *= beta without touching A")
	}

	// Through resident plans α = 0 is the same trivial product, C ← β·C
	// with nothing planned, admitted or run: a budget no 256² product fits
	// in does not refuse it, and Stats say only what layout it was on.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(18))
	opts := Options{Curve: layout.ZMorton}
	pa, err := Prepack(ctx, pool, opts, matrix.Random(256, 256, rng), false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	pb, err := PrepackConforming(ctx, pool, opts, matrix.Random(256, 256, rng), false, pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	for _, budget := range []int64{0, 1024} {
		o := opts
		o.MemBudget = budget
		C := matrix.Random(256, 256, rng)
		want := C.Clone()
		want.Scale(0.5)
		st, err := GEMMPrepacked(ctx, pool, o, 0, pa, pb, 0.5, C)
		if err != nil {
			t.Fatalf("GEMMPrepacked, α = 0, MemBudget %d: %v", budget, err)
		}
		if !matrix.Equal(C, want, 0) {
			t.Errorf("GEMMPrepacked, α = 0, MemBudget %d: C is not β·C", budget)
		}
		if got, trivial := fmt.Sprintf("%+v", *st), fmt.Sprintf("%+v", Stats{Layout: layout.ZMorton}); got != trivial {
			t.Errorf("GEMMPrepacked, α = 0, MemBudget %d: Stats\n%s\nwant the trivial product's\n%s", budget, got, trivial)
		}
	}
}

func TestGEMMDimensionErrors(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.New(4, 5)
	B := matrix.New(6, 3) // inner mismatch
	C := matrix.New(4, 3)
	if _, err := GEMM(pool, Options{}, false, false, 1, A, B, 0, C); err == nil {
		t.Error("inner dimension mismatch not rejected")
	}
	B2 := matrix.New(5, 3)
	C2 := matrix.New(9, 9) // wrong C
	if _, err := GEMM(pool, Options{}, false, false, 1, A, B2, 0, C2); err == nil {
		t.Error("C shape mismatch not rejected")
	}
	if _, err := GEMM(pool, Options{Curve: layout.RowMajor}, false, false, 1, A, B2, 0, matrix.New(4, 3)); err == nil {
		t.Error("row-major layout not rejected")
	}
	if _, err := GEMM(pool, Options{Curve: layout.RowMajor}, false, false, 0, A, B2, 1, matrix.New(4, 3)); err == nil {
		t.Error("row-major layout not rejected on the α = 0 path")
	}
}

func TestGEMMSerialCutoffIrrelevantToResult(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(19))
	A := matrix.Random(64, 64, rng)
	B := matrix.Random(64, 64, rng)
	want := matrix.New(64, 64)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	for _, cut := range []int{1, 2, 4, 64} {
		for _, alg := range Algs {
			C := matrix.New(64, 64)
			opts := Options{Curve: layout.Hilbert, Alg: alg, Tile: testTile, SerialCutoff: cut}
			if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(C, want, 1e-10) {
				t.Errorf("alg=%v cutoff=%d: wrong product", alg, cut)
			}
		}
	}
}

func TestGEMMFastCutoff(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	A := matrix.Random(64, 64, rng)
	B := matrix.Random(64, 64, rng)
	want := matrix.New(64, 64)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	for _, fc := range []int{1, 2, 4, 8, 16} {
		C := matrix.New(64, 64)
		opts := Options{Curve: layout.GrayMorton, Alg: Winograd, Tile: testTile, FastCutoff: fc}
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(C, want, 1e-10) {
			t.Errorf("FastCutoff=%d: wrong product", fc)
		}
	}
}

func TestGEMMKernelIndependence(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(29))
	A := matrix.Random(40, 40, rng)
	B := matrix.Random(40, 40, rng)
	want := matrix.New(40, 40)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	for _, name := range leaf.Names() {
		C := matrix.New(40, 40)
		opts := Options{Curve: layout.ZMorton, Alg: Strassen, Tile: testTile, KernelName: name}
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(C, want, 1e-10) {
			t.Errorf("kernel %s: wrong product", name)
		}
	}
}

func TestGEMMPropertyRandomShapes(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		alg := Algs[rng.Intn(len(Algs))]
		cv := mulCurves[rng.Intn(len(mulCurves))]
		alpha := 2*rng.Float64() - 1
		beta := 2*rng.Float64() - 1
		ta := rng.Intn(2) == 1
		tb := rng.Intn(2) == 1
		ar, ac := m, k
		if ta {
			ar, ac = k, m
		}
		br, bc := k, n
		if tb {
			br, bc = n, k
		}
		A := matrix.Random(ar, ac, rng)
		B := matrix.Random(br, bc, rng)
		C := matrix.Random(m, n, rng)
		want := C.Clone()
		matrix.RefGEMM(ta, tb, alpha, A, B, beta, want)
		got := C.Clone()
		opts := Options{Curve: cv, Alg: alg, Tile: testTile}
		if _, err := GEMM(pool, opts, ta, tb, alpha, A, B, beta, got); err != nil {
			return false
		}
		return matrix.Equal(got, want, tol(m, k, n))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(31))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	opts := Options{Curve: layout.ZMorton, Alg: Standard, ForceTile: 8}
	st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	// The standard algorithm on a padded 64³ problem performs exactly
	// 2·64³ accounted flops (no additions).
	wantWork := 2.0 * 64 * 64 * 64
	if st.Work != wantWork {
		t.Errorf("work = %g, want %g", st.Work, wantWork)
	}
	if st.Span <= 0 || st.Span > st.Work {
		t.Errorf("span = %g out of range (work %g)", st.Span, st.Work)
	}
	if st.Depth != 3 || st.TileM != 8 {
		t.Errorf("depth=%d tile=%d, want 3 and 8", st.Depth, st.TileM)
	}
	if st.Parallelism() <= 1 {
		t.Errorf("parallelism = %g, want > 1", st.Parallelism())
	}
	if st.Total() <= 0 {
		t.Error("total time not recorded")
	}
}

func TestWorkSpanAnalyticMatchesAccounted(t *testing.T) {
	// With full spawning (SerialCutoff=1) the runtime accounting must
	// match the analytic recurrences exactly, for every algorithm and
	// however many workers run the DAG: a level's shape is a function of
	// the plan. Serial Strassen (the cutoff at the grid side, no level
	// spawns) does the same work with a span equal to it.
	rng := rand.New(rand.NewSource(37))
	n := 32
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	for _, workers := range []int{1, 2, 4} {
		pool := sched.NewPool(workers)
		for _, alg := range Algs {
			C := matrix.New(n, n)
			opts := Options{Curve: layout.ZMorton, Alg: alg, ForceTile: 4, SerialCutoff: 1}
			st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
			if err != nil {
				t.Fatal(err)
			}
			w, s := WorkSpan(alg, 3, 4)
			if math.Abs(st.Work-w) > 1e-6 {
				t.Errorf("%v, %d workers: accounted work %g, analytic %g", alg, workers, st.Work, w)
			}
			if math.Abs(st.Span-s) > 1e-6 {
				t.Errorf("%v, %d workers: accounted span %g, analytic %g", alg, workers, st.Span, s)
			}
		}
		opts := Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 4, SerialCutoff: 8}
		st, err := GEMM(pool, opts, false, false, 1, A, B, 0, matrix.New(n, n))
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := WorkSpan(Strassen, 3, 4); math.Abs(st.Work-w) > 1e-6 || st.Span != st.Work {
			t.Errorf("serial strassen, %d workers: accounted work %g span %g, want both %g", workers, st.Work, st.Span, w)
		}
		pool.Close()
	}
}

func TestFastAlgorithmsDoLessWork(t *testing.T) {
	// The defining property: Strassen and Winograd perform fewer flops
	// than the standard algorithm once the recursion is deep enough.
	wStd, _ := WorkSpan(Standard, 5, 16)
	wStr, _ := WorkSpan(Strassen, 5, 16)
	wWin, _ := WorkSpan(Winograd, 5, 16)
	if wStr >= wStd {
		t.Errorf("Strassen work %g not below standard %g", wStr, wStd)
	}
	if wWin >= wStr {
		t.Errorf("Winograd work %g not below Strassen %g", wWin, wStr)
	}
}

func TestNilPoolCreatesTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	A := matrix.Random(20, 20, rng)
	B := matrix.Random(20, 20, rng)
	C := matrix.New(20, 20)
	want := matrix.New(20, 20)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	if _, err := GEMM(nil, Options{Curve: layout.Hilbert, Tile: testTile}, false, false, 1, A, B, 0, C); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(C, want, 1e-11) {
		t.Fatal("nil-pool GEMM wrong")
	}
}

func TestGEMMOnStridedViews(t *testing.T) {
	// Operands that are views into larger matrices (Stride > Rows) must
	// work through every layout path: pack, canonical pad, and unpack.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(77))
	big := matrix.Random(100, 100, rng)
	A := big.View(3, 7, 40, 30)
	B := big.View(11, 42, 30, 50)
	Cbig := matrix.Random(90, 90, rng)
	for _, cv := range mulCurves {
		C := Cbig.View(5, 9, 40, 50)
		saved := Cbig.Clone()
		want := C.Clone()
		matrix.RefGEMM(false, false, 1, A, B, 1, want)
		opts := Options{Curve: cv, Alg: Strassen, Tile: testTile}
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 1, C); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(C, want, 1e-11) {
			t.Errorf("%v: strided-view GEMM wrong", cv)
		}
		// The rest of Cbig must be untouched.
		for i := 0; i < 90; i++ {
			for j := 0; j < 90; j++ {
				inside := i >= 5 && i < 45 && j >= 9 && j < 59
				if !inside && Cbig.At(i, j) != saved.At(i, j) {
					t.Fatalf("%v: GEMM wrote outside the C view at (%d,%d)", cv, i, j)
				}
			}
		}
		// Restore C for the next layout.
		Cbig.CopyFrom(saved)
	}
}

func TestGEMMEmptyDims(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	// k = 0: C should just be scaled by beta.
	A := matrix.New(4, 0)
	B := matrix.New(0, 4)
	C := matrix.Sequential(4, 4)
	want := matrix.Sequential(4, 4)
	want.Scale(2)
	if _, err := GEMM(pool, Options{Curve: layout.ZMorton}, false, false, 1, A, B, 2, C); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(C, want, 0) {
		t.Fatal("k=0 GEMM should reduce to C *= beta")
	}
}
