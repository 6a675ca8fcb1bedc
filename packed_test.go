package recmat

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestPackedMulMatchesMul(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	n := 96
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	want := NewMatrix(n, n)
	RefGEMM(false, false, 1, A, B, 0, want)

	for _, lo := range []Layout{UMorton, XMorton, ZMorton, GrayMorton, Hilbert} {
		opts := &Options{Layout: lo, Algorithm: Winograd, FastCutoff: paperCutoff, ForceTile: 16}
		pa, err := eng.Pack(A, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := eng.Pack(B, opts)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := eng.NewPackedResult(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.MulPacked(pc, pa, pb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ConvertIn != 0 || rep.ConvertOut != 0 {
			t.Errorf("%v: packed multiply reported conversion time", lo)
		}
		got, err := pc.Unpack(eng)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, 1e-10) {
			t.Errorf("%v: packed multiply wrong (max diff %g)", lo, MaxAbsDiff(got, want))
		}
	}

	// A Packed is a Plan: a non-square Prepack split into blocks, its
	// partner packed to conform, multiplies through NewPackedResult +
	// MulPacked with the bits of GEMMPrepacked at β = 1 over the zero C
	// both start from — twice, the second result drawn from the buffers
	// the first gave back, which the pool hands out dirty.
	A2, B2 := Random(600, 150, rng), Random(150, 100, rng)
	for _, alg := range []Algorithm{Standard, Winograd} {
		opts := &Options{Layout: ZMorton, Algorithm: alg, FastCutoff: paperCutoff}
		pa, err := eng.Prepack(A2, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := eng.PrepackConforming(B2, false, opts, pa)
		if err != nil {
			t.Fatal(err)
		}
		want := NewMatrix(600, 100)
		if _, err := eng.GEMMPrepackedOpts(context.Background(), opts, 1, pa, pb, 1, want); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			pc, err := eng.NewPackedResult(pa, pb)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.MulPacked(pc, pa, pb, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Blocks < 2 || rep.ConvertBytes != 0 || rep.PackReused != 2*rep.Blocks {
				t.Errorf("%v, round %d: %d products, %d bytes converted, %d packs reused; want several, 0 and two a product",
					alg, round, rep.Blocks, rep.ConvertBytes, rep.PackReused)
			}
			got, err := pc.Unpack(eng)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, want, 0) {
				t.Errorf("%v, round %d: split plans through MulPacked differ from GEMMPrepacked (max diff %g)", alg, round, MaxAbsDiff(got, want))
			}
			pc.Release()
		}
		pa.Release()
		pb.Release()
	}
}

func TestPackedChainAmortizesConversion(t *testing.T) {
	// A^4 computed with two packed squarings: only the initial Pack and
	// final Unpack convert.
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(2))
	n := 64
	A := Random(n, n, rng)
	opts := &Options{Layout: ZMorton, ForceTile: 16}
	pa, err := eng.Pack(A, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := eng.NewPackedResult(pa, pa)
	if _, err := eng.MulPacked(p2, pa, pa, opts); err != nil {
		t.Fatal(err)
	}
	p4, _ := eng.NewPackedResult(p2, p2)
	if _, err := eng.MulPacked(p4, p2, p2, opts); err != nil {
		t.Fatal(err)
	}
	got, err := p4.Unpack(eng)
	if err != nil {
		t.Fatal(err)
	}

	// Reference A^4.
	a2 := NewMatrix(n, n)
	RefGEMM(false, false, 1, A, A, 0, a2)
	a4 := NewMatrix(n, n)
	RefGEMM(false, false, 1, a2, a2, 0, a4)
	if !Equal(got, a4, 1e-9) {
		t.Fatalf("packed A^4 wrong: %g", MaxAbsDiff(got, a4))
	}
}

func TestPackedAtAndShape(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	A := Random(30, 50, rng)
	p, err := eng.Pack(A, &Options{Layout: Hilbert})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 30 || p.Cols() != 50 || p.Layout() != Hilbert {
		t.Fatal("packed shape/layout wrong")
	}
	for _, ij := range [][2]int{{0, 0}, {29, 49}, {13, 27}} {
		if p.At(ij[0], ij[1]) != A.At(ij[0], ij[1]) {
			t.Fatalf("At(%d,%d) mismatch", ij[0], ij[1])
		}
	}

	// At and Unpack read a plan split into blocks (600 rows in two
	// segments) and one packed transposed, derived or from the source.
	S := Random(600, 150, rng)
	split, err := eng.Prepack(S, false, &Options{Layout: Hilbert})
	if err != nil {
		t.Fatal(err)
	}
	packedT, err := eng.Prepack(S, true, &Options{Layout: Hilbert})
	if err != nil {
		t.Fatal(err)
	}
	derivedT, err := split.Transposed(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what  string
		p     *Packed
		trans bool
	}{{"split", split, false}, {"transposed", packedT, true}, {"derived transpose", derivedT, true}} {
		// src is element (i, j) of what the plan holds, op(S).
		src := func(i, j int) float64 {
			if tc.trans {
				return S.At(j, i)
			}
			return S.At(i, j)
		}
		if r, c := tc.p.Rows(), tc.p.Cols(); tc.trans != (r == 150) || r*c != 600*150 || tc.p.Trans() != tc.trans {
			t.Fatalf("%s: %dx%d, Trans %v", tc.what, r, c, tc.p.Trans())
		}
		for _, ij := range [][2]int{{0, 0}, {299, 149}, {300, 0}, {599, 149}, {451, 77}} {
			i, j := ij[0], ij[1] // in S
			if tc.trans {
				i, j = j, i
			}
			if tc.p.At(i, j) != src(i, j) {
				t.Errorf("%s: At(%d,%d) = %g, want %g", tc.what, i, j, tc.p.At(i, j), src(i, j))
			}
		}
		u, err := tc.p.Unpack(eng)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < u.Cols; j++ {
			for i := 0; i < u.Rows; i++ {
				if u.At(i, j) != src(i, j) {
					t.Fatalf("%s: Unpack(%d,%d) = %g, want %g", tc.what, i, j, u.At(i, j), src(i, j))
				}
			}
		}
	}
}

func TestPackRejectsCanonical(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	if _, err := eng.Pack(NewMatrix(4, 4), &Options{Layout: ColMajor}); err == nil {
		t.Fatal("Pack accepted a canonical layout")
	}
}

func TestPackedConformanceErrors(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	a, _ := eng.Pack(NewMatrix(64, 64), &Options{Layout: ZMorton, ForceTile: 16})
	b, _ := eng.Pack(NewMatrix(64, 64), &Options{Layout: Hilbert, ForceTile: 16})
	if _, err := eng.NewPackedResult(a, b); err == nil {
		t.Fatal("cross-layout packed product accepted")
	}
	c, _ := eng.Pack(NewMatrix(64, 64), &Options{Layout: ZMorton, ForceTile: 8})
	if _, err := eng.NewPackedResult(a, c); err == nil {
		t.Fatal("cross-depth packed product accepted")
	}
	// A result of other operands is not the product's C.
	small, _ := eng.Pack(NewMatrix(32, 32), &Options{Layout: ZMorton, ForceTile: 16})
	other, err := eng.NewPackedResult(small, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MulPacked(other, a, a, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("MulPacked into the result of other operands: err = %v, want ErrDimension", err)
	}
}
