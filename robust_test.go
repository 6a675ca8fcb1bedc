package recmat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestEngineAfterCloseReturnsError(t *testing.T) {
	eng := NewEngine(2)
	eng.Close()
	eng.Close() // idempotent
	A := Identity(8)
	C := NewMatrix(8, 8)
	if _, err := eng.Mul(C, A, A, nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Mul on closed engine: err = %v, want ErrPoolClosed", err)
	}
	if _, err := eng.Pack(Identity(16), &Options{Layout: ZMorton}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Pack on closed engine: err = %v, want ErrPoolClosed", err)
	}
}

func TestDGEMMRejectsNonFinite(t *testing.T) {
	A := Identity(8)
	C := NewMatrix(8, 8)
	if _, err := DGEMM(false, false, math.NaN(), A, A, 0, C, nil); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if _, err := DGEMM(false, false, 1, A, A, math.Inf(1), C, nil); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

// TestBetaZeroClearsNonFinite: β = 0 stores and does not multiply, so a
// NaN or Inf in the incoming C is gone afterwards as under reference
// BLAS — also when α = 0 and the call is C.Scale(β) alone, per call
// and as a batch item.
func TestBetaZeroClearsNonFinite(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(27))
	const n = 40
	A, B := Random(n, n, rng), Random(n, n, rng)
	dirty := func() *Matrix {
		C := Random(n, n, rng)
		C.Data[5], C.Data[n+1], C.Data[2*n+7] = math.NaN(), math.Inf(1), math.Inf(-1)
		return C
	}
	for _, alpha := range []float64{0, 1.5} {
		want := NewMatrix(n, n)
		RefGEMM(false, false, alpha, A, B, 0, want)
		C := dirty()
		if _, err := eng.DGEMM(false, false, alpha, A, B, 0, C, &Options{Layout: ZMorton}); err != nil {
			t.Fatal(err)
		}
		items := []GEMMBatchItem{{Alpha: alpha, A: A, B: B, C: dirty()}, {Alpha: alpha, A: A, B: B, C: dirty()}}
		if _, errs, err := eng.GEMMBatch(context.Background(), items, &Options{Layout: ZMorton}); err != nil || errs[0] != nil || errs[1] != nil {
			t.Fatal(err, errs)
		}
		for name, got := range map[string]*Matrix{"DGEMM": C, "GEMMBatch item 0": items[0].C, "GEMMBatch item 1": items[1].C} {
			if d := MaxAbsDiff(got, want); !(d <= 1e-12) { // a NaN fails this
				t.Errorf("α=%v β=0 %s: max diff %v from the reference; C[5]=%v", alpha, name, d, got.Data[5])
			}
		}
	}
}

// TestBetaZeroNeverReadsC: with β = 0 no pass zeroes C ahead of a
// product — each block's epilogue, or a block multiplied where it lies,
// stores its region unread — so a NaN or ±Inf in the incoming C must
// leave no trace, through DGEMM, GEMMBatch and GEMMPrepacked, on a
// product of one block multiplied where it lies, on three blocks one
// runner walks (four workers), and on two blocks that two runners share.
// Each result is the same call's on a C of +0, bit for bit.
func TestBetaZeroNeverReadsC(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, tc := range []struct {
		what             string
		workers, m, k, n int
		blocks           int
	}{
		{"one block in place", 2, 64, 64, 64, 1},
		{"three blocks walked in order", 4, 384, 32, 32, 3},
		{"two blocks on two runners", 2, 256, 32, 32, 2},
	} {
		eng := NewEngine(tc.workers)
		A, B := Random(tc.m, tc.k, rng), Random(tc.k, tc.n, rng)
		opts := &Options{Layout: ZMorton, Algorithm: Standard}
		dirty := func() *Matrix {
			C := NewMatrix(tc.m, tc.n)
			for i := range C.Data {
				C.Data[i] = [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
			}
			return C
		}
		pa, err := eng.Prepack(A, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := eng.PrepackConforming(B, false, opts, pa)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{1, 1.5} {
			runs := map[string]func(C *Matrix) (*Report, error){
				"DGEMM": func(C *Matrix) (*Report, error) { return eng.DGEMM(false, false, alpha, A, B, 0, C, opts) },
				"GEMMBatch": func(C *Matrix) (*Report, error) {
					r, errs, err := eng.GEMMBatch(context.Background(), []GEMMBatchItem{{Alpha: alpha, A: A, B: B, C: C}}, opts)
					if err == nil {
						err = errs[0]
					}
					return &r.Stats, err
				},
				"GEMMPrepacked": func(C *Matrix) (*Report, error) {
					return eng.GEMMPrepacked(context.Background(), alpha, pa, pb, 0, C)
				},
			}
			for name, run := range runs {
				want, got := NewMatrix(tc.m, tc.n), dirty()
				if _, err := run(want); err != nil {
					t.Fatalf("%s α=%v %s: %v", tc.what, alpha, name, err)
				}
				r, err := run(got)
				if err != nil {
					t.Fatalf("%s α=%v %s: %v", tc.what, alpha, name, err)
				}
				if r.Blocks != tc.blocks {
					t.Fatalf("%s α=%v %s: %d blocks, want %d (test premise)", tc.what, alpha, name, r.Blocks, tc.blocks)
				}
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s α=%v %s: C[%d] = %v on a C of NaN and ±Inf, %v on a C of +0", tc.what, alpha, name, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
		pa.Release()
		pb.Release()
		eng.Close()
	}
}

func TestOptionsMemBudgetPassthrough(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(21))
	n := 128
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	rep, err := eng.Mul(C, A, B, &Options{
		Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff, ForceTile: 16, MemBudget: 600_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) == 0 || !rep.Serial {
		t.Fatalf("MemBudget not honored through Options: alg=%v serial=%v notes=%v", rep.Alg, rep.Serial, rep.Degraded)
	}
	if _, err := eng.Mul(C, A, B, &Options{
		Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff, ForceTile: 16, MemBudget: 100,
	}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
}

func TestOptionsResidualGrowthPassthrough(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(22))
	n := 64
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	rep, err := eng.Mul(C, A, B, &Options{
		Layout: ZMorton, Algorithm: Winograd, FastCutoff: paperCutoff, ForceTile: 16, MaxResidualGrowth: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alg != Standard || len(rep.Degraded) == 0 {
		t.Fatalf("MaxResidualGrowth not honored: alg=%v notes=%v", rep.Alg, rep.Degraded)
	}
}

func TestGEMMContextCancelLatency(t *testing.T) {
	// The acceptance bound: cancelling a 2048³ multiply returns a
	// wrapped context error within 250 ms and leaks no goroutines.
	if testing.Short() {
		t.Skip("2048³ multiply in -short mode")
	}
	eng := NewEngine(0)
	defer eng.Close()
	rng := rand.New(rand.NewSource(23))
	n := 2048
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.MulContext(ctx, C, A, B, &Options{Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // well inside the multi-second compute
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		lat := time.Since(t0)
		if err == nil {
			t.Fatal("2048³ multiply finished before cancellation — cannot measure latency")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if lat > 250*time.Millisecond {
			t.Fatalf("cancellation latency %v, want <= 250ms", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled multiply never returned")
	}

	// No goroutines may outlive the cancelled run.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGEMMContextDeadline(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(24))
	n := 512
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := eng.DGEMMContext(ctx, false, false, 1, A, B, 0, C, &Options{Layout: Hilbert})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

func TestGEMMContextPackageFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 64
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	want := NewMatrix(n, n)
	RefGEMM(false, false, 1, A, B, 0, want)
	C := NewMatrix(n, n)
	if _, err := GEMMContext(context.Background(), false, false, 1, A, B, 0, C, nil); err != nil {
		t.Fatal(err)
	}
	if !Equal(C, want, 1e-10) {
		t.Fatalf("GEMMContext wrong (max diff %g)", MaxAbsDiff(C, want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GEMMContext(ctx, false, false, 1, A, B, 0, C, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled GEMMContext: err = %v", err)
	}
}

func TestStressPublicAPINoEscapingPanics(t *testing.T) {
	// Under fault injection no panic may escape any public entry point,
	// and every failure must unwrap to the injected *Fault.
	if !faultinject.Enabled() {
		faultinject.Configure(faultinject.Config{
			PanicProb: 0.01, AllocProb: 0.02, DelayProb: 0.01,
			Delay: 50 * time.Microsecond, Seed: 7,
		})
		defer faultinject.Disable()
	}
	eng := NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(26))
	n := 96
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	want := NewMatrix(n, n)
	RefGEMM(false, false, 1, A, B, 0, want)

	for i := 0; i < 25; i++ {
		C := NewMatrix(n, n)
		opts := &Options{
			Layout:    []Layout{ColMajor, ZMorton, Hilbert}[i%3],
			Algorithm: []Algorithm{Standard, Strassen, Winograd}[i%3], FastCutoff: paperCutoff,
			ForceTile: 16,
		}
		_, err := eng.Mul(C, A, B, opts)
		if err == nil {
			if !Equal(C, want, 1e-10) {
				t.Fatalf("iter %d: successful run under faults is wrong", i)
			}
			continue
		}
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("iter %d: error does not unwrap to injected fault: %v", i, err)
		}
		var te *TaskError
		if errors.As(err, &te) {
			for _, pe := range te.Panics {
				if len(pe.Stack) == 0 {
					t.Fatalf("iter %d: aggregated panic missing worker stack", i)
				}
			}
		}
	}
}

// TestPackFaultIsTaskError: Engine.Pack and Packed.Unpack are entry
// points like the multiplies — the conversion runs as a task of the pool
// even when the operand is one tile, so an injected panic in it (the
// core.pack fault point; any task's) comes back as a *TaskError that
// unwraps to the fault, and never escapes raw.
func TestPackFaultIsTaskError(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	one := &Options{Layout: ZMorton, ForceTile: 16} // a 16×16 operand is one tile
	p, err := eng.Pack(Identity(16), one)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Configure(faultinject.Config{PanicProb: 1, Seed: 5})
	defer faultinject.Disable()
	for _, tc := range []struct {
		what string
		call func() (any, error)
	}{
		{"Pack", func() (any, error) { q, err := eng.Pack(Identity(16), one); return q, err }},
		{"Unpack", func() (any, error) { m, err := p.Unpack(eng); return m, err }},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: a panic escaped: %v", tc.what, r)
				}
			}()
			got, err := tc.call()
			var te *TaskError
			var fault *faultinject.Fault
			if !errors.As(err, &te) || !errors.As(err, &fault) {
				t.Errorf("%s: err = %v, want a *TaskError wrapping the injected fault", tc.what, err)
			}
			if m, _ := got.(*Matrix); m != nil {
				t.Errorf("%s returned a matrix beside its error", tc.what)
			}
			if q, _ := got.(*Packed); q != nil {
				t.Errorf("%s returned an operand beside its error", tc.what)
			}
		}()
	}
}

// TestPackedAndPlanWrappersNeverPanic: the Packed and Plan wrappers hand
// nil and empty operands, and pre-tiled operands whose logical shapes do
// not multiply, to core's checks — every case is ErrDimension, none a
// nil dereference or a tile-selection panic in the wrapper; so is a nil
// operand or C to DGEMM, Mul and GEMMPrepacked.
func TestPackedAndPlanWrappersNeverPanic(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	z16 := &Options{Layout: ZMorton, ForceTile: 16}
	pack := func(rows, cols int) *Packed {
		p, err := eng.Pack(NewMatrix(rows, cols), z16)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b40 := pack(64, 64), pack(40, 64) // one depth, one tile shape; 64 columns against 40 rows
	c, err := eng.NewPackedResult(a, a)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Prepack(Identity(8), false, &Options{Layout: ZMorton})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release()
	for _, tc := range []struct {
		what string
		call func() error
	}{
		{"Pack of a 0x0 matrix", func() error { _, err := eng.Pack(NewMatrix(0, 0), z16); return err }},
		{"Pack of a 0xn matrix", func() error { _, err := eng.Pack(NewMatrix(0, 5), &Options{Layout: ZMorton}); return err }},
		{"Pack of nil", func() error { _, err := eng.Pack(nil, z16); return err }},
		{"DGEMM with a nil A", func() error {
			_, err := eng.DGEMM(false, false, 1, nil, Identity(8), 0, NewMatrix(8, 8), nil)
			return err
		}},
		{"DGEMM with a nil B", func() error {
			_, err := eng.DGEMM(false, false, 1, Identity(8), nil, 0, NewMatrix(8, 8), nil)
			return err
		}},
		{"DGEMM with a nil C", func() error {
			_, err := eng.DGEMM(false, false, 1, Identity(8), Identity(8), 0, nil, nil)
			return err
		}},
		{"Mul(nil, A, A, nil)", func() error { _, err := Mul(nil, Identity(8), Identity(8), nil); return err }},
		{"GEMMPrepacked with a nil C", func() error {
			_, err := eng.GEMMPrepacked(ctx, 1, plan, plan, 0, nil)
			return err
		}},
		{"Pack under a ForceTile that cannot cover", func() error {
			_, err := eng.Pack(NewMatrix(8, 8), &Options{Layout: ZMorton, ForceTile: 1 << 62})
			return err
		}},
		{"NewPackedResult(nil, nil)", func() error { _, err := eng.NewPackedResult(nil, nil); return err }},
		{"NewPackedResult of 64x64 · 40x64", func() error { _, err := eng.NewPackedResult(a, b40); return err }},
		{"MulPacked(nil, nil, nil, nil)", func() error { _, err := eng.MulPacked(nil, nil, nil, nil); return err }},
		{"MulPacked of 64x64 · 40x64", func() error { _, err := eng.MulPacked(c, a, b40, nil); return err }},
		{"Prepack of nil", func() error { _, err := eng.Prepack(nil, false, &Options{Layout: ZMorton}); return err }},
		{"GEMMPrepacked with nil plans", func() error {
			_, err := eng.GEMMPrepacked(ctx, 1, nil, nil, 0, NewMatrix(8, 8))
			return err
		}},
		{"GEMMPrepacked with one nil plan", func() error {
			_, err := eng.GEMMPrepacked(ctx, 1, plan, nil, 0, NewMatrix(8, 8))
			return err
		}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.what, r)
				}
			}()
			if err := tc.call(); !errors.Is(err, ErrDimension) {
				t.Errorf("%s: err = %v, want ErrDimension", tc.what, err)
			}
		}()
	}
}
