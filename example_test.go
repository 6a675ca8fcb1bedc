package recmat_test

import (
	"context"
	"fmt"
	"math/rand"

	recmat "repro"
)

// ExampleMul multiplies two matrices over the Z-Morton layout and checks
// the result against the naive reference.
func ExampleMul() {
	rng := rand.New(rand.NewSource(1))
	A := recmat.Random(100, 100, rng)
	B := recmat.Random(100, 100, rng)
	C := recmat.NewMatrix(100, 100)
	if _, err := recmat.Mul(C, A, B, &recmat.Options{
		Layout:    recmat.ZMorton,
		Algorithm: recmat.Strassen,
		Workers:   2,
	}); err != nil {
		panic(err)
	}
	want := recmat.NewMatrix(100, 100)
	recmat.RefGEMM(false, false, 1, A, B, 0, want)
	fmt.Println("correct:", recmat.Equal(C, want, 1e-10))
	// Output: correct: true
}

// ExampleEngine_DGEMM shows the full BLAS dgemm form with transposes and
// scalars.
func ExampleEngine_DGEMM() {
	eng := recmat.NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(2))
	A := recmat.Random(30, 50, rng) // op(A) = Aᵀ is 50×30
	B := recmat.Random(30, 40, rng)
	C := recmat.Random(50, 40, rng)
	want := C.Clone()
	recmat.RefGEMM(true, false, 2, A, B, -1, want)
	if _, err := eng.DGEMM(true, false, 2, A, B, -1, C, &recmat.Options{Layout: recmat.Hilbert}); err != nil {
		panic(err)
	}
	fmt.Println("correct:", recmat.Equal(C, want, 1e-11))
	// Output: correct: true
}

// ExampleEngine_Prepack amortizes layout conversion over a stream of
// multiplications: the fixed operand is converted once into a Plan,
// each streamed right-hand side is packed conforming to it, and the
// per-call conversion drops to the C epilogue alone.
func ExampleEngine_Prepack() {
	eng := recmat.NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(4))
	n, b := 128, 16
	W := recmat.Random(n, n, rng)
	opts := &recmat.Options{Layout: recmat.Hilbert}
	pw, err := eng.Prepack(W, false, opts)
	if err != nil {
		panic(err)
	}
	defer pw.Release()

	ok, reusedConversion := true, true
	for stream := 0; stream < 3; stream++ {
		B := recmat.Random(n, b, rng)
		pb, err := eng.PrepackConforming(B, false, opts, pw)
		if err != nil {
			panic(err)
		}
		C := recmat.NewMatrix(n, b)
		rep, err := eng.GEMMPrepacked(context.Background(), 1, pw, pb, 0, C)
		pb.Release()
		if err != nil {
			panic(err)
		}
		want := recmat.NewMatrix(n, b)
		recmat.RefGEMM(false, false, 1, W, B, 0, want)
		ok = ok && recmat.Equal(C, want, 1e-11)
		// Every operand pack was served by the plans, none re-converted.
		reusedConversion = reusedConversion && rep.PackReused > 0
	}
	fmt.Println("correct:", ok, "conversion amortized:", reusedConversion)
	// Output: correct: true conversion amortized: true
}

// ExampleEngine_Cholesky factors an SPD matrix and verifies L·Lᵀ = A.
func ExampleEngine_Cholesky() {
	eng := recmat.NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	n := 80
	G := recmat.Random(n, n, rng)
	A := recmat.NewMatrix(n, n)
	recmat.RefGEMM(true, false, 1, G, G, 0, A)
	for i := 0; i < n; i++ {
		A.Set(i, i, A.At(i, i)+float64(n))
	}
	L, err := eng.Cholesky(A, &recmat.Options{Layout: recmat.ZMorton})
	if err != nil {
		panic(err)
	}
	rec := recmat.NewMatrix(n, n)
	recmat.RefGEMM(false, true, 1, L, L, 0, rec)
	fmt.Println("reconstructs:", recmat.Equal(rec, A, 1e-9))
	// Output: reconstructs: true
}
