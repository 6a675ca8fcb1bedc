package recmat

import (
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
}
