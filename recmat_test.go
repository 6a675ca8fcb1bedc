package recmat

import (
	"context"
	"math/rand"
	"strings"
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

// TestNilOptionsEverywhere: nil options run on Z-Morton through every
// entry point and every report says so — Pack, Prepack and the batches
// included, which the parent refused as "ColMajor" — with the
// reference's result. Naming a canonical layout is still refused by the
// entry points that keep operands packed, in an error naming the one
// that refused; a batch runs ColMajor as DGEMM does.
func TestNilOptionsEverywhere(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	A, B := Random(48, 40, rng), Random(40, 56, rng)
	want := NewMatrix(48, 56)
	RefGEMM(false, false, 1, A, B, 0, want)
	// ran checks what a call reported it ran on and, when C is given, the
	// product it left there.
	ran := func(what string, rep *Report, err error, C *Matrix, lay Layout) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rep.Layout != lay {
			t.Errorf("%s ran on %v, want %v", what, rep.Layout, lay)
		}
		if C != nil && !Equal(C, want, 1e-11) {
			t.Errorf("%s: max diff %g", what, MaxAbsDiff(C, want))
		}
	}

	C := NewMatrix(48, 56)
	rep, err := Mul(C, A, B, nil)
	ran("Mul(nil)", rep, err, C, ZMorton)
	C = NewMatrix(48, 56)
	rep, err = eng.Mul(C, A, B, &Options{Layout: ColMajor})
	ran("Mul(ColMajor)", rep, err, C, ColMajor)
	for _, c := range []struct {
		opts *Options
		want Layout
	}{{nil, ZMorton}, {&Options{Algorithm: Winograd}, ZMorton}, {&Options{Algorithm: Standard8}, ZMorton},
		{&Options{Layout: GrayMorton, Algorithm: Winograd}, GrayMorton}} {
		if got := ResolveLayout(c.opts); got != c.want {
			t.Errorf("ResolveLayout(%+v) = %v, want %v", c.opts, got, c.want)
		}
	}

	pa, err := eng.Prepack(A, false, nil)
	if err != nil {
		t.Fatalf("Prepack(nil): %v", err)
	}
	defer pa.Release()
	pb, err := eng.PrepackConforming(B, false, nil, pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	C = NewMatrix(48, 56)
	rep, err = eng.GEMMPrepacked(ctx, 1, pa, pb, 0, C)
	ran("GEMMPrepacked", rep, err, C, ZMorton)
	C = NewMatrix(48, 56)
	bs, _, err := eng.GEMMPrepackedBatch(ctx, pa, []PrepackedGEMMBatchItem{{Alpha: 1, B: B, C: C}}, nil)
	ran("GEMMPrepackedBatch", &bs.Stats, err, C, ZMorton)
	C = NewMatrix(48, 56)
	bs, errs, err := eng.GEMMBatch(ctx, []GEMMBatchItem{{Alpha: 1, A: A, B: B, C: C}}, nil)
	if err == nil {
		err = errs[0]
	}
	ran("GEMMBatch", &bs.Stats, err, C, ZMorton)

	S := Random(64, 64, rng)
	ps, err := eng.Pack(S, nil)
	if err != nil {
		t.Fatalf("Pack(nil): %v", err)
	}
	if u, err := ps.Unpack(eng); err != nil || !Equal(u, S, 0) || ps.Layout() != ZMorton {
		t.Errorf("Pack(nil) on %v: unpack %v", ps.Layout(), err)
	}
	pc, _ := eng.NewPackedResult(ps, ps)
	rep, err = eng.MulPacked(pc, ps, ps, nil)
	ran("MulPacked", rep, err, nil, ZMorton)

	for _, lo := range []Layout{ColMajor, RowMajor} {
		o := &Options{Layout: lo}
		for what, err := range map[string]error{
			"Pack":    func() error { _, err := eng.Pack(A, o); return err }(),
			"Prepack": func() error { _, err := eng.Prepack(A, false, o); return err }(),
		} {
			if msg := what + " requires a recursive layout, got " + lo.String(); err == nil || !strings.Contains(err.Error(), msg) {
				t.Errorf("%s(%v) = %v, want %q", what, lo, err, msg)
			}
		}
	}
	// A batch item runs on canonical storage as DGEMM does, and is refused
	// row-major storage as DGEMM is.
	C = NewMatrix(48, 56)
	bs, errs, err = eng.GEMMBatch(ctx, []GEMMBatchItem{{Alpha: 1, A: A, B: B, C: C}}, &Options{Layout: ColMajor})
	if err == nil {
		err = errs[0]
	}
	ran("GEMMBatch", &bs.Stats, err, C, ColMajor)
	_, _, err = eng.GEMMBatch(ctx, []GEMMBatchItem{{Alpha: 1, A: A, B: B, C: C}}, &Options{Layout: RowMajor})
	if _, want := DGEMM(false, false, 1, A, B, 0, C, &Options{Layout: RowMajor}); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("GEMMBatch(RowMajor) = %v, want DGEMM's refusal %v", err, want)
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
