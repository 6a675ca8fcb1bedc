package recmat

import (
	"errors"
	"math/rand"
	"testing"
)

func spdMatrix(n int, rng *rand.Rand) *Matrix {
	g := Random(n, n, rng)
	a := NewMatrix(n, n)
	RefGEMM(true, false, 1, g, g, 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestEngineCholeskySolve(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	n := 120
	A := spdMatrix(n, rng)
	B := Random(n, 2, rng)
	X := B.Clone()
	if err := eng.SolveSPD(A, X, &Options{Layout: ZMorton, Algorithm: Strassen}); err != nil {
		t.Fatal(err)
	}
	res := B.Clone()
	RefGEMM(false, false, -1, A, X, 1, res)
	if res.MaxAbs() > 1e-8 {
		t.Fatalf("SolveSPD residual %g", res.MaxAbs())
	}
}

func TestEngineSYRK(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(2))
	A := Random(90, 30, rng)
	C := NewMatrix(90, 90)
	if err := eng.SYRK(false, 2, A, 0, C, &Options{Layout: Hilbert}); err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(90, 90)
	RefGEMM(false, true, 2, A, A, 0, want)
	if !Equal(C, want, 1e-11) {
		t.Fatalf("SYRK wrong: %g", MaxAbsDiff(C, want))
	}
}

func TestEngineTRMMAndTRSMRoundTrip(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	n := 100
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			L.Set(i, j, rng.Float64()-0.5)
		}
		L.Set(j, j, 2)
	}
	B := Random(n, 5, rng)
	X := B.Clone()
	opts := &Options{Layout: GrayMorton}
	if err := eng.TRMM(false, false, 3, L, X, opts); err != nil {
		t.Fatal(err)
	}
	if err := eng.TRSM(false, false, 1.0/3.0, L, X, opts); err != nil {
		t.Fatal(err)
	}
	if !Equal(X, B, 1e-10) {
		t.Fatalf("TRSM∘TRMM != id: %g", MaxAbsDiff(X, B))
	}
}

func TestEngineLUSolveAndDet(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(4))
	n := 130
	A := Random(n, n, rng)
	for i := 0; i < n; i++ {
		A.Set(i, i, A.At(i, i)+4)
	}
	B := Random(n, 3, rng)
	f, err := eng.LU(A, &Options{Layout: ZMorton, Algorithm: Strassen})
	if err != nil {
		t.Fatal(err)
	}
	X := B.Clone()
	if err := f.Solve(X); err != nil {
		t.Fatal(err)
	}
	res := B.Clone()
	RefGEMM(false, false, -1, A, X, 1, res)
	if res.MaxAbs() > 1e-9 {
		t.Fatalf("LU solve residual %g", res.MaxAbs())
	}
	if f.Det() == 0 {
		t.Fatal("determinant of a solvable system is zero")
	}
	// One-shot path.
	Y := B.Clone()
	if err := eng.SolveLU(A, Y, &Options{Layout: Hilbert}); err != nil {
		t.Fatal(err)
	}
	if !Equal(X, Y, 1e-10) {
		t.Fatal("SolveLU disagrees with factor-then-solve")
	}
}

// TestEngineBLAS3Refusals: a nil operand or a shape that does not
// conform is ErrDimension from every BLAS-3 entry point, as from GEMM —
// never a panic.
func TestEngineBLAS3Refusals(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	sq, tall := NewMatrix(4, 4), NewMatrix(5, 2)
	lu, err := eng.LU(Identity(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"SYRK nil A", func() error { return eng.SYRK(false, 1, nil, 0, sq, nil) }},
		{"SYRK nil C", func() error { return eng.SYRK(false, 1, sq, 0, nil, nil) }},
		{"SYRK shape", func() error { return eng.SYRK(false, 1, tall, 0, sq, nil) }},
		{"TRSM nil factor", func() error { return eng.TRSM(false, false, 1, nil, sq, nil) }},
		{"TRSM nil B", func() error { return eng.TRSM(false, false, 1, sq, nil, nil) }},
		{"TRSM shape", func() error { return eng.TRSM(false, false, 1, sq, tall, nil) }},
		{"TRMM nil factor", func() error { return eng.TRMM(false, false, 1, nil, sq, nil) }},
		{"TRMM shape", func() error { return eng.TRMM(false, false, 1, tall, tall, nil) }},
		{"Cholesky nil", func() error { _, err := eng.Cholesky(nil, nil); return err }},
		{"Cholesky shape", func() error { _, err := eng.Cholesky(tall, nil); return err }},
		{"SolveSPD nil A", func() error { return eng.SolveSPD(nil, sq, nil) }},
		{"SolveSPD nil B", func() error { return eng.SolveSPD(Identity(4), nil, nil) }},
		{"LU nil", func() error { _, err := eng.LU(nil, nil); return err }},
		{"LU shape", func() error { _, err := eng.LU(tall, nil); return err }},
		{"LU solve nil B", func() error { return lu.Solve(nil) }},
		{"LU solve shape", func() error { return lu.Solve(tall) }},
		{"SolveLU nil A", func() error { return eng.SolveLU(nil, sq, nil) }},
	} {
		if err := c.call(); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: got %v, want ErrDimension", c.name, err)
		}
	}
}
