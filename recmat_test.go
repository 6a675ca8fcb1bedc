package recmat

import (
	"math/rand"
	"testing"
)

func TestMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	A := Random(50, 40, rng)
	B := Random(40, 60, rng)
	for _, lo := range Layouts {
		for _, alg := range Algorithms {
			C := NewMatrix(50, 60)
			want := NewMatrix(50, 60)
			RefGEMM(false, false, 1, A, B, 0, want)
			if _, err := Mul(C, A, B, &Options{Layout: lo, Algorithm: alg, Workers: 2}); err != nil {
				t.Fatalf("%v/%v: %v", lo, alg, err)
			}
			if !Equal(C, want, 1e-10) {
				t.Errorf("%v/%v: max diff %g", lo, alg, MaxAbsDiff(C, want))
			}
		}
	}
}

func TestEngineReuse(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(2))
	A := Random(30, 30, rng)
	B := Random(30, 30, rng)
	want := NewMatrix(30, 30)
	RefGEMM(false, false, 1, A, B, 0, want)
	for i := 0; i < 5; i++ {
		C := NewMatrix(30, 30)
		if _, err := eng.Mul(C, A, B, &Options{Layout: Hilbert, Algorithm: Winograd}); err != nil {
			t.Fatal(err)
		}
		if !Equal(C, want, 1e-10) {
			t.Fatalf("iteration %d wrong", i)
		}
	}
	if eng.Workers() != 2 {
		t.Fatalf("Workers() = %d", eng.Workers())
	}
}

func TestEngineMulAdd(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	A := Random(20, 20, rng)
	B := Random(20, 20, rng)
	C := Random(20, 20, rng)
	want := C.Clone()
	RefGEMM(false, false, 1, A, B, 1, want)
	if _, err := eng.MulAdd(C, A, B, &Options{Layout: ZMorton}); err != nil {
		t.Fatal(err)
	}
	if !Equal(C, want, 1e-11) {
		t.Fatal("MulAdd wrong")
	}
}

func TestDGEMMFullInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	A := Random(24, 36, rng) // op(A) = Aᵀ: 36×24
	B := Random(48, 24, rng) // op(B) = Bᵀ: 24×48
	C := Random(36, 48, rng)
	want := C.Clone()
	RefGEMM(true, true, 0.5, A, B, -2, want)
	if _, err := DGEMM(true, true, 0.5, A, B, -2, C, &Options{Layout: GrayMorton, Algorithm: Strassen, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !Equal(C, want, 1e-10) {
		t.Fatalf("DGEMM wrong: max diff %g", MaxAbsDiff(C, want))
	}
}

func TestNilOptionsDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	A := Random(10, 10, rng)
	C := NewMatrix(10, 10)
	if _, err := Mul(C, A, Identity(10), nil); err != nil {
		t.Fatal(err)
	}
	if !Equal(C, A, 1e-12) {
		t.Fatal("A·I != A with nil options")
	}
}

func TestReportContents(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(6))
	A := Random(64, 64, rng)
	B := Random(64, 64, rng)
	C := NewMatrix(64, 64)
	rep, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, ForceTile: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work != 2*64*64*64 {
		t.Errorf("work = %g", rep.Work)
	}
	if rep.Depth != 3 || rep.TileM != 8 {
		t.Errorf("depth/tile = %d/%d", rep.Depth, rep.TileM)
	}
	if rep.Parallelism() <= 1 {
		t.Errorf("parallelism = %g", rep.Parallelism())
	}
}

// paperCutoff is FastCutoff for the tests that mean to exercise the fast
// recursion (arena sizing, MemBudget ladders, the residual probe, trace
// shape): the paper's setting, not the crossover rule's for this
// host's kernel.
const paperCutoff = 1

func TestReportArenaBytes(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	A := Random(128, 128, rng)
	B := Random(128, 128, rng)
	C := NewMatrix(128, 128)
	rep, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff, ForceTile: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Fast algorithms reserve their whole temp tree up front; the report
	// must surface the reservation and a zero heap spill.
	if rep.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d, want > 0", rep.ArenaBytes)
	}
	if rep.AllocBytes != 0 {
		t.Errorf("AllocBytes = %d, want 0 (no arena fallback expected)", rep.AllocBytes)
	}
	// The standard algorithm needs no temporaries at all.
	rep2, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ArenaBytes != 0 {
		t.Errorf("standard ArenaBytes = %d, want 0", rep2.ArenaBytes)
	}
}

func TestParseHelpers(t *testing.T) {
	if l, err := ParseLayout("z"); err != nil || l != ZMorton {
		t.Fatal("ParseLayout failed")
	}
	if a, err := ParseAlgorithm("winograd"); err != nil || a != Winograd {
		t.Fatal("ParseAlgorithm failed")
	}
	if _, err := KernelByName("blocked"); err != nil {
		t.Fatal("KernelByName failed")
	}
	if len(Kernels()) == 0 {
		t.Fatal("no kernels listed")
	}
}

func TestWorkSpanExport(t *testing.T) {
	w, s := WorkSpan(Standard, 4, 16)
	if w <= 0 || s <= 0 || Parallelism(w, s) <= 1 {
		t.Fatal("WorkSpan export broken")
	}
	wf, _ := WorkSpan(Strassen, 4, 16)
	if wf >= w {
		t.Fatal("Strassen should do less work")
	}
}
