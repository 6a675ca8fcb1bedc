package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

func refProduct(n int, A, B *matrix.Dense) *matrix.Dense {
	want := matrix.New(n, n)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	return want
}

func TestNonFiniteScalarsRejected(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.Identity(8)
	C := matrix.New(8, 8)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := GEMM(pool, Options{}, false, false, bad, A, A, 0, C); !errors.Is(err, ErrNonFinite) {
			t.Errorf("alpha=%v: err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := GEMM(pool, Options{}, false, false, 1, A, A, bad, C); !errors.Is(err, ErrNonFinite) {
			t.Errorf("beta=%v: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestForceTileOverflowRejected(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.Identity(8)
	C := matrix.New(8, 8)
	// An absurd forced tile must yield ErrDimension, not an attempt to
	// allocate a 2^31-sided padded matrix.
	if _, err := GEMM(pool, Options{ForceTile: 1 << 31}, false, false, 1, A, A, 0, C); !errors.Is(err, ErrDimension) {
		t.Fatalf("ForceTile=1<<31: err = %v, want ErrDimension", err)
	}
}

func TestGEMMCtxOnClosedPool(t *testing.T) {
	pool := sched.NewPool(1)
	pool.Close()
	A := matrix.Identity(8)
	C := matrix.New(8, 8)
	if _, err := GEMM(pool, Options{}, false, false, 1, A, A, 0, C); !errors.Is(err, sched.ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestMemBudgetDegradesAndStaysCorrect(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	n := 128
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := refProduct(n, A, B)

	// With this budget the parallel Strassen footprint (~1.9 MiB at
	// 128³, ForceTile 16, 2 workers) exceeds the budget but serial
	// Strassen, every level depth-first (~0.5 MiB), fits.
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16, MemBudget: 600_000}
	C := matrix.New(n, n)
	stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alg != Strassen || !stats.Serial {
		t.Fatalf("degraded to %v (serial=%v), want Strassen (serial)", stats.Alg, stats.Serial)
	}
	if len(stats.Degraded) == 0 {
		t.Fatal("degradation not recorded in Stats.Degraded")
	}
	// 526336: three packed operands, one product tile, and the rung's
	// signature arena — one S, T and P quadrant per level.
	if stats.EstimatedBytes <= 0 || stats.EstimatedBytes > 526336 {
		t.Fatalf("EstimatedBytes = %d, want in (0, 526336]", stats.EstimatedBytes)
	}
	if !matrix.Equal(C, want, 1e-10) {
		t.Fatalf("degraded multiply wrong (max diff %g)", matrix.MaxAbsDiff(C, want))
	}
}

func TestMemBudgetUnlimitedByDefault(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(8))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	stats, err := GEMM(pool, Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16}, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alg != Strassen || stats.Serial || len(stats.Degraded) != 0 {
		t.Fatalf("no-budget run degraded: alg=%v serial=%v notes=%v", stats.Alg, stats.Serial, stats.Degraded)
	}
}

func TestMemBudgetRejectsWhenNothingFits(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	A := matrix.Identity(128)
	C := matrix.New(128, 128)
	// Even the temporary-free serial standard rung needs the three
	// packed operands (~400 KiB); a 1 KB budget admits nothing.
	_, err := GEMM(pool, Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16, MemBudget: 1000},
		false, false, 1, A, A, 0, C)
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	// Admission control fires before C is scaled or touched.
	for i, v := range C.Data {
		if v != 0 {
			t.Fatalf("C modified at %d despite admission rejection", i)
		}
	}
}

func TestResidualProbeDegradesToStandard(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(9))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := refProduct(n, A, B)

	// A bound far below any realistic Strassen residual forces the
	// probe to degrade.
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16, MaxResidualGrowth: 1e-9}
	C := matrix.New(n, n)
	stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alg != Standard {
		t.Fatalf("alg = %v, want Standard after probe degradation", stats.Alg)
	}
	if len(stats.Degraded) == 0 {
		t.Fatal("probe degradation not recorded")
	}
	if !matrix.Equal(C, want, 1e-10) {
		t.Fatalf("degraded multiply wrong (max diff %g)", matrix.MaxAbsDiff(C, want))
	}
}

// TestResidualProbeDegradesBatchOfOne: a one-item batch is its GEMMCtx
// twin, so it probes residual growth and degrades to Standard as the
// call does, with the same note and the same bits.
func TestResidualProbeDegradesBatchOfOne(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(9))
	n := 64
	A, B := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16, MaxResidualGrowth: 1e-9}
	C := matrix.New(n, n)
	st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	bs := batchOfOne(t, "probe", pool, opts, BatchItem{Alpha: 1, A: A, B: B}, matrix.New(n, n), C, st)
	if bs.Alg != Standard || len(bs.Degraded) == 0 {
		t.Fatalf("one-item GEMMBatch: alg = %v, notes %q; want Standard after probe degradation", bs.Alg, bs.Degraded)
	}
}

func TestResidualProbeAllowsFastAlgorithm(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(10))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, ForceTile: 16, MaxResidualGrowth: 1e12}
	C := matrix.New(n, n)
	stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alg != Strassen || len(stats.Degraded) != 0 {
		t.Fatalf("generous bound still degraded: alg=%v notes=%v", stats.Alg, stats.Degraded)
	}
}

func TestGEMMCtxPreCancelled(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	A := matrix.Identity(16)
	C := matrix.New(16, 16)
	for i := range C.Data {
		C.Data[i] = 7
	}
	_, err := GEMMCtx(ctx, pool, Options{}, false, false, 1, A, A, 2, C)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Rejected before admission: C (including its beta scaling) is
	// untouched.
	for i, v := range C.Data {
		if v != 7 {
			t.Fatalf("C modified at %d by pre-cancelled call", i)
		}
	}
}

func TestCancelMidRunLeavesCScaledOrComplete(t *testing.T) {
	// The atomicity contract, swept: cancellations spread over the whole
	// uncancelled wall time of a call — and crowded into its last tenth,
	// where the epilogue is — leave every C block exactly its input (the
	// run never began), its β-scaled input, or the complete product. On
	// 4 workers the 512³ call is one block of 16×16 tiles, whose
	// zero-fill, pack and epilogue are all chunked over the pool and the
	// epilogue, which applies β, shielded; 960×40·40×40 is a wave of eight
	// blocks on four runners, serial inside, which complete in no known
	// order. On the β = 0 rows C starts as a sentinel that no pass clears
	// ahead of the blocks: each block's epilogue stores it — one 512³
	// block that spawns, eight blocks on four runners, three blocks one
	// runner walks in turn — and a cancelled run zeroes the blocks it did
	// not complete, so each ends bitwise +0 or the uncancelled run's, and
	// a refused run keeps the sentinel. The last row is a lone 256³ on 2
	// workers multiplied in place: eight serial bases of 4×4 tiles, each
	// one leaf call (exec.base), so a cancellation lands between bases.
	pools := map[int]*sched.Pool{2: sched.NewPool(2), 4: sched.NewPool(4)}
	for _, p := range pools {
		defer p.Close()
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		m, k, n int
		opts    Options
		blocks  int
		beta    float64
		workers int
		inPlace bool
	}{
		{512, 512, 512, Options{Curve: layout.Hilbert, Alg: Winograd, ForceTile: 32}, 1, 0.5, 4, false},
		{960, 40, 40, Options{Curve: layout.Hilbert, Alg: Winograd, Tile: testTile}, 8, 0.5, 4, false},
		{512, 512, 512, Options{Curve: layout.ZMorton, Alg: Standard, ForceTile: 32}, 1, 0, 4, false},
		{960, 40, 40, Options{Curve: layout.Hilbert, Alg: Winograd, Tile: testTile}, 8, 0, 4, false},
		{360, 40, 40, Options{Curve: layout.Hilbert, Alg: Standard, Tile: testTile}, 3, 0, 4, false},
		{256, 256, 256, Options{Curve: layout.ZMorton, Alg: Standard}, 1, 0, 2, true},
	} {
		pool := pools[tc.workers]
		A, B := matrix.Random(tc.m, tc.k, rng), matrix.Random(tc.k, tc.n, rng)
		C := matrix.Random(tc.m, tc.n, rng)
		if tc.beta == 0 {
			C.Fill(7.25)
		}
		want, scaled := C.Clone(), C.Clone()
		scaled.Scale(tc.beta)
		var wall time.Duration
		for i := 0; i < 3; i++ {
			want = C.Clone()
			t0 := time.Now()
			st, err := GEMM(pool, tc.opts, false, false, 1, A, B, tc.beta, want)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(st.Degraded); got != 0 || st.Blocks != tc.blocks || tc.inPlace != (st.ConvertBytes == 0) {
				t.Fatalf("%dx%dx%d: %d blocks, notes %v, %d bytes converted; want %d blocks, in place %v (test premise)",
					tc.m, tc.k, tc.n, st.Blocks, st.Degraded, st.ConvertBytes, tc.blocks, tc.inPlace)
			}
			wall = time.Since(t0)
		}
		split := tc.opts.Tile
		if tc.blocks == 1 {
			split = tile.Config{TMin: tc.m, TMax: tc.m} // SplitDims leaves the call whole
		}
		var delays []time.Duration
		for i := 0; i < 24; i++ {
			delays = append(delays, wall*time.Duration(i)/22) // to a little past the end
		}
		for i := 0; i < 8; i++ {
			delays = append(delays, wall*time.Duration(90+i)/100)
		}
		untouched, partial, complete := 0, 0, 0
		for _, delay := range delays {
			got := C.Clone()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			_, err := GEMMCtx(ctx, pool, tc.opts, false, false, 1, A, B, tc.beta, got)
			timer.Stop()
			cancel()
			switch {
			case err == nil:
				complete++
				if !matrix.Equal(got, want, 0) {
					t.Fatalf("%dx%dx%d, delay %v: a run that succeeded differs from the uncancelled one", tc.m, tc.k, tc.n, delay)
				}
			case !errors.Is(err, context.Canceled):
				t.Fatalf("%dx%dx%d, delay %v: err = %v, want context.Canceled", tc.m, tc.k, tc.n, delay, err)
			case matrix.Equal(got, C, 0):
				untouched++
				if !strings.Contains(err.Error(), "not started") {
					t.Errorf("%dx%dx%d, delay %v: C is untouched, yet the error is %q", tc.m, tc.k, tc.n, delay, err)
				}
			default:
				partial++
				blocksScaledOrComplete(t, fmt.Sprintf("%dx%dx%d, delay %v", tc.m, tc.k, tc.n, delay), split, tc.k, got, scaled, want)
				if !strings.Contains(err.Error(), fmt.Sprintf("of %d blocks", tc.blocks)) {
					t.Errorf("%dx%dx%d, delay %v: error %q does not say how far the call got", tc.m, tc.k, tc.n, delay, err)
				}
			}
		}
		t.Logf("%dx%dx%d β %v (wall %v): %d delays, %d refused untouched, %d cancelled mid-run, %d completed",
			tc.m, tc.k, tc.n, tc.beta, wall, len(delays), untouched, partial, complete)
	}
}

func TestCancellationLatencyBounded(t *testing.T) {
	// A cancelled context must abort the compute within the promised
	// bound (roughly one leaf kernel; the acceptance bound is 250 ms).
	// The bound is wall time, and under `go test ./...` the other
	// packages' tests compete for the CPUs, so the best of three
	// attempts is judged: a real regression misses every time.
	pool := sched.NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(12))
	n := 1024
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	var lat time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := GEMMCtx(ctx, pool, Options{Curve: layout.ZMorton, Alg: Strassen}, false, false, 1, A, B, 0, C)
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the compute get going
		t0 := time.Now()
		cancel()
		select {
		case err := <-errc:
			lat = time.Since(t0)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if err == nil || lat <= 250*time.Millisecond {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled GEMM never returned")
		}
	}
	t.Fatalf("cancellation took %v at best of three attempts, want <= 250ms", lat)
}

func TestCancellationStorm(t *testing.T) {
	// Repeated cancellations at varied points must never corrupt a
	// successful run, leak an inconsistent pool, or panic.
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(13))
	n := 128
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := refProduct(n, A, B)
	for i := 0; i < 12; i++ {
		C := matrix.New(n, n)
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i%5) * 300 * time.Microsecond)
		_, err := GEMMCtx(ctx, pool, Options{Curve: layout.ZMorton, Alg: Standard8}, false, false, 1, A, B, 0, C)
		cancel()
		if err == nil && !matrix.Equal(C, want, 1e-10) {
			t.Fatalf("iter %d: uncancelled run wrong", i)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
	}
	// Pool must still run clean work.
	C := matrix.New(n, n)
	if _, err := GEMM(pool, Options{}, false, false, 1, A, B, 0, C); err != nil {
		t.Fatalf("pool broken after storm: %v", err)
	}
	if !matrix.Equal(C, want, 1e-10) {
		t.Fatal("post-storm run wrong")
	}
}

// stressFaults enables fault injection for a TestStress* function,
// honoring an externally supplied RECMAT_FAULTS configuration (the
// `make stress` path) and otherwise installing a deterministic default.
// The returned func restores the disabled state.
func stressFaults() func() {
	if faultinject.Enabled() {
		return func() {}
	}
	// Low per-hook probabilities: a multiplication crosses hundreds of
	// hook sites, so these rates produce a healthy mix of failed and
	// clean runs (both branches of the stress assertions matter).
	faultinject.Configure(faultinject.Config{
		PanicProb: 0.002,
		AllocProb: 0.005,
		DelayProb: 0.005,
		Delay:     50 * time.Microsecond,
		Seed:      7,
	})
	return faultinject.Disable
}

func TestStressGEMMFaultInjection(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(14))
	n := 96
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := refProduct(n, A, B)

	failures := 0
	for i := 0; i < 30; i++ {
		C := matrix.New(n, n)
		algs := []Alg{Standard, Strassen, Winograd, Standard8}
		opts := Options{Curve: layout.ZMorton, Alg: algs[i%len(algs)], ForceTile: 16}
		stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
		if err == nil {
			if stats == nil {
				t.Fatal("nil stats on success")
			}
			// Delay faults may have fired, but a successful return must
			// still be numerically correct.
			if !matrix.Equal(C, want, 1e-10) {
				t.Fatalf("iter %d: successful run under faults is wrong (max diff %g)",
					i, matrix.MaxAbsDiff(C, want))
			}
			continue
		}
		failures++
		// Every injected failure must surface as a typed, inspectable
		// error: the *Fault panic value stays reachable through the
		// TaskError aggregation.
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("iter %d: error %v does not unwrap to *faultinject.Fault", i, err)
		}
	}
	t.Logf("fault stress: %d/30 runs failed (injected)", failures)

	// The pool survives everything the storm threw at it.
	faultinject.Disable()
	C := matrix.New(n, n)
	if _, err := GEMM(pool, Options{}, false, false, 1, A, B, 0, C); err != nil {
		t.Fatalf("pool broken after fault stress: %v", err)
	}
	if !matrix.Equal(C, want, 1e-10) {
		t.Fatal("post-stress run wrong")
	}
}

func TestStressMulTiledFaultInjection(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(15))
	n := 64
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)

	// Every stage — Pack, the multiplication, anything on the pool —
	// may fail under injection, but always with an error that unwraps
	// to the injected *Fault, never an escaping panic.
	mustBeInjected := func(i int, stage string, err error) {
		t.Helper()
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("iter %d: %s error does not unwrap to *faultinject.Fault: %v", i, stage, err)
		}
	}
	for i := 0; i < 20; i++ {
		ta := NewTiled(layout.Hilbert, 2, 16, 16, n, n)
		tb := NewTiled(layout.Hilbert, 2, 16, 16, n, n)
		tc := NewTiled(layout.Hilbert, 2, 16, 16, n, n)
		if err := ta.Pack(context.Background(), pool, A, false, 1); err != nil {
			mustBeInjected(i, "pack A", err)
			continue
		}
		if err := tb.Pack(context.Background(), pool, B, false, 1); err != nil {
			mustBeInjected(i, "pack B", err)
			continue
		}
		if _, err := MulPrepacked(context.Background(), pool, Options{Alg: Strassen}, asPlan(tc), asPlan(ta), asPlan(tb)); err != nil {
			mustBeInjected(i, "MulPrepacked", err)
		}
	}
}

// TestShapeMismatchIsErrDimension: every entry point answers operand
// shapes that do not conform — inner dimensions that disagree, a C that
// is not the product's shape — with ErrDimension (a caller's mistake:
// the daemon's 400, not its 500), and leaves C untouched. 8×5 · 6×7 is
// the inner mismatch; 8×6 · 6×7 into an 8×8 C the other.
func TestShapeMismatchIsErrDimension(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(16))
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	A, badA, B := matrix.Random(8, 6, rng), matrix.Random(8, 5, rng), matrix.Random(6, 7, rng)
	pa, err := Prepack(ctx, pool, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	badPA, err := Prepack(ctx, pool, opts, badA, false)
	if err != nil {
		t.Fatal(err)
	}
	defer badPA.Release()
	pb, err := Prepack(ctx, pool, opts, B, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()

	// item reports a wave's verdict on its only member.
	item := func(_ *BatchStats, errs []error, err error) error {
		if err != nil {
			t.Errorf("the wave itself failed: %v", err)
		}
		return errs[0]
	}
	for _, ep := range []struct {
		name string
		call func(A *matrix.Dense, pa *Prepacked, C *matrix.Dense) error
	}{
		{"GEMMCtx", func(A *matrix.Dense, _ *Prepacked, C *matrix.Dense) error {
			_, err := GEMMCtx(ctx, pool, opts, false, false, 1, A, B, 0.5, C)
			return err
		}},
		{"GEMMPrepacked", func(_ *matrix.Dense, pa *Prepacked, C *matrix.Dense) error {
			_, err := GEMMPrepacked(ctx, pool, opts, 1, pa, pb, 0.5, C)
			return err
		}},
		{"GEMMBatch", func(A *matrix.Dense, _ *Prepacked, C *matrix.Dense) error {
			return item(GEMMBatch(ctx, pool, opts, []BatchItem{{Alpha: 1, A: A, B: B, Beta: 0.5, C: C}}))
		}},
		{"GEMMPrepackedBatch", func(_ *matrix.Dense, pa *Prepacked, C *matrix.Dense) error {
			return item(GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 1, B: B, Beta: 0.5, C: C}}))
		}},
		{"GEMMBatchStrided", func(A *matrix.Dense, _ *Prepacked, C *matrix.Dense) error {
			// The strided form states m, k, n once; its mismatch is a buffer
			// that cannot hold the operand it describes.
			_, _, err := GEMMBatchStrided(ctx, pool, opts, false, false, 8, 6, 7, 1, A.Data, 8, len(A.Data),
				B.Data, 6, len(B.Data), 0.5, C.Data, 8, len(C.Data), 1)
			return err
		}},
	} {
		for _, tc := range []struct {
			what string
			A    *matrix.Dense
			pa   *Prepacked
			C    *matrix.Dense
		}{
			{"inner dimensions disagree", badA, badPA, matrix.Random(8, 7, rng)},
			{"C is not the product's shape", A, pa, matrix.Random(8, 8, rng)},
		} {
			if ep.name == "GEMMBatchStrided" && tc.A == A {
				tc.C = matrix.Random(8, 6, rng) // too short for the 8×7 it is said to hold
			}
			before := tc.C.Clone()
			if err := ep.call(tc.A, tc.pa, tc.C); !errors.Is(err, ErrDimension) {
				t.Errorf("%s, %s: err = %v, want ErrDimension", ep.name, tc.what, err)
			}
			if !matrix.Equal(tc.C, before, 0) {
				t.Errorf("%s, %s: C was modified by a rejected call", ep.name, tc.what)
			}
		}
	}
}

// TestEntryPointsRefuseUpFront: every entry point runs the one prologue
// (enter), so each refuses a closed pool (ErrPoolClosed) and a context
// cancelled before the call ("core: <entry point> not started", wrapping
// the cause) before an argument is read: C and the operands are
// untouched, nothing is returned, and no goroutine is left — a nil
// pool's transient one is never started.
func TestEntryPointsRefuseUpFront(t *testing.T) {
	live := sched.NewPool(2)
	defer live.Close()
	closed := sched.NewPool(2)
	closed.Close()
	bg := context.Background()
	drain := errors.New("draining")
	cancelled, cancel := context.WithCancelCause(bg)
	cancel(drain)

	rng := rand.New(rand.NewSource(23))
	opts := Options{Curve: layout.ZMorton, Alg: Winograd, Tile: testTile}
	A, B, C := matrix.Random(24, 16, rng), matrix.Random(16, 20, rng), matrix.Random(24, 20, rng)
	pa, err := Prepack(bg, live, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	pb, err := PrepackConforming(bg, live, opts, B, false, pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	pc, err := NewProduct(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Release()
	ta, tb, tc := pa.Block(0, 0), pb.Block(0, 0), pc.Block(0, 0)
	for i := range tc.Data {
		tc.Data[i] = 3
	}
	operands := func() [][]float64 {
		return [][]float64{A.Data, B.Data, C.Data, ta.Data, tb.Data, tc.Data}
	}
	var before [][]float64
	for _, d := range operands() {
		before = append(before, append([]float64(nil), d...))
	}

	plan := func(p *Prepacked, err error) (bool, error) {
		p.Release()
		return p != nil, err
	}
	unpacked := func(d *matrix.Dense, err error) (bool, error) { return d != nil, err }
	wave := func(bs *BatchStats, errs []error, err error) (bool, error) { return bs != nil || errs != nil, err }
	run := func(st *Stats, err error) (bool, error) { return st != nil, err }
	for _, ep := range []struct {
		name string // as the refusal names it
		call func(ctx context.Context, pool *sched.Pool) (bool, error)
	}{
		{"GEMM", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return run(GEMMCtx(ctx, pool, opts, false, false, 1, A, B, 0.5, C))
		}},
		{"GEMMPrepacked", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return run(GEMMPrepacked(ctx, pool, opts, 1, pa, pb, 0.5, C))
		}},
		{"MulPrepacked", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return run(MulPrepacked(ctx, pool, opts, pc, pa, pb))
		}},
		{"GEMMBatch", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return wave(GEMMBatch(ctx, pool, opts, []BatchItem{{Alpha: 1, A: A, B: B, Beta: 0.5, C: C}}))
		}},
		{"GEMMBatch", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return wave(GEMMBatchStrided(ctx, pool, opts, false, false, 24, 16, 20, 1, A.Data, 24, len(A.Data),
				B.Data, 16, len(B.Data), 0.5, C.Data, 24, len(C.Data), 1))
		}},
		{"GEMMPrepackedBatch", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return wave(GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 1, B: B, Beta: 0.5, C: C}}))
		}},
		{"Prepack", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return plan(Prepack(ctx, pool, opts, A, false))
		}},
		{"PrepackConforming", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return plan(PrepackConforming(ctx, pool, opts, B, false, pa))
		}},
		{"Transposed", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return plan(pa.Transposed(ctx, pool))
		}},
		{"Pack", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return plan(Pack(ctx, pool, opts, A))
		}},
		{"Unpack", func(ctx context.Context, pool *sched.Pool) (bool, error) {
			return unpacked(pc.Unpack(ctx, pool))
		}},
	} {
		for _, rc := range []struct {
			what string
			ctx  context.Context
			pool *sched.Pool
			want error
		}{
			{"closed pool", bg, closed, sched.ErrPoolClosed},
			{"cancelled context", cancelled, live, drain},
			{"cancelled context, no pool", cancelled, nil, drain},
		} {
			goroutines := runtime.NumGoroutine()
			got, err := ep.call(rc.ctx, rc.pool)
			if !errors.Is(err, rc.want) || got {
				t.Errorf("%s, %s: result %v, err = %v; want none and %v", ep.name, rc.what, got, err, rc.want)
			} else if says := "core: " + ep.name + " not started: draining"; rc.want == drain && err.Error() != says {
				t.Errorf("%s, %s: err = %q, want %q", ep.name, rc.what, err, says)
			}
			for i, d := range operands() {
				for j := range d {
					if d[j] != before[i][j] {
						t.Fatalf("%s, %s: operand %d modified at %d by a refused call", ep.name, rc.what, i, j)
					}
				}
			}
			if g := runtime.NumGoroutine(); g != goroutines {
				t.Errorf("%s, %s: %d goroutines before the refused call, %d after", ep.name, rc.what, goroutines, g)
			}
		}
	}
}
