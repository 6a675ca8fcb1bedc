package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestGEMMBatchMatchesSingleCalls: the batched wave must be bit-exact
// against N independent GEMMCtx calls — not merely within tolerance.
// The wave reuses the per-call tiling and the per-element pack/compute/
// unpack arithmetic, so every item's accumulation order is identical to
// its single-call twin regardless of how the wave schedules items.
func TestGEMMBatchMatchesSingleCalls(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(81))
	// Shapes stay at or below the split bound of tile.SplitDims (α·short
	// biased down to TSweet·2^j: 64 here). GEMMBatch multiplies each item
	// as a single block, GEMMCtx takes the plan geometry once it splits,
	// so the two are bit-exact on unsplit shapes; on split shapes the
	// twin of GEMMCtx is the prepacked path
	// (TestDeterminismSplitEntryPoints).
	shapes := [][3]int{{40, 24, 56}, {64, 64, 64}, {64, 48, 17}}
	algs := []Alg{Standard, TableWinograd222}
	for _, cv := range layout.RecursiveCurves {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for bi, beta := range []float64{0, 1, 0.5} {
					opts := Options{Curve: cv, Alg: algs[bi%len(algs)], Tile: testTile}
					items := make([]BatchItem, len(shapes))
					want := make([]*matrix.Dense, len(shapes))
					for i, s := range shapes {
						m, k, n := s[0], s[1], s[2]
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
						want[i] = C.Clone()
						if _, err := GEMMCtx(context.Background(), pool, opts, ta, tb, -1.25, A, B, beta, want[i]); err != nil {
							t.Fatalf("%v ta=%v tb=%v beta=%g item %d: single call: %v", cv, ta, tb, beta, i, err)
						}
						items[i] = BatchItem{TransA: ta, TransB: tb, Alpha: -1.25, A: A, B: B, Beta: beta, C: C}
					}
					bs, errs, err := GEMMBatch(context.Background(), pool, opts, items)
					if err != nil {
						t.Fatalf("%v ta=%v tb=%v beta=%g: GEMMBatch: %v", cv, ta, tb, beta, err)
					}
					if bs.Items != len(shapes) || bs.Completed != len(shapes) {
						t.Fatalf("%v: Items=%d Completed=%d, want %d/%d", cv, bs.Items, bs.Completed, len(shapes), len(shapes))
					}
					for i := range items {
						if errs[i] != nil {
							t.Fatalf("%v ta=%v tb=%v beta=%g item %d: %v", cv, ta, tb, beta, i, errs[i])
						}
						if !matrix.Equal(items[i].C, want[i], 0) {
							t.Errorf("%v ta=%v tb=%v beta=%g item %d: not bit-exact, max diff %g",
								cv, ta, tb, beta, i, matrix.MaxAbsDiff(items[i].C, want[i]))
						}
					}
				}
			}
		}
	}
}

// TestGEMMPrepackedBatchMatchesLooped: a batch of raw right-hand sides
// against one shared plan must be bit-exact against the looped
// equivalent (PrepackConforming + GEMMPrepacked per item) — the wave's
// in-task B pack chooses the same conforming tile width and the
// k-segment accumulation runs in the same order.
func TestGEMMPrepackedBatchMatchesLooped(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(82))
	n := 96
	A := matrix.Random(n, n, rng)
	opts := Options{Curve: layout.Hilbert, Alg: Standard, PartnerDim: 32}
	pa, err := Prepack(context.Background(), pool, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()

	widths := []int{17, 24, 32, 1, 24}
	for _, tb := range []bool{false, true} {
		for _, beta := range []float64{0, 0.5} {
			items := make([]PrepackedBatchItem, len(widths))
			want := make([]*matrix.Dense, len(widths))
			for i, w := range widths {
				br, bc := n, w
				if tb {
					br, bc = w, n
				}
				B := matrix.Random(br, bc, rng)
				C := matrix.Random(n, w, rng)
				want[i] = C.Clone()
				pb, err := PrepackConforming(context.Background(), pool, opts, B, tb, pa)
				if err != nil {
					t.Fatalf("tb=%v item %d: PrepackConforming: %v", tb, i, err)
				}
				if _, err := GEMMPrepacked(context.Background(), pool, opts, 0.75, pa, pb, beta, want[i]); err != nil {
					t.Fatalf("tb=%v item %d: GEMMPrepacked: %v", tb, i, err)
				}
				pb.Release()
				items[i] = PrepackedBatchItem{TransB: tb, Alpha: 0.75, B: B, Beta: beta, C: C}
			}
			bs, errs, err := GEMMPrepackedBatch(context.Background(), pool, opts, pa, items)
			if err != nil {
				t.Fatalf("tb=%v beta=%g: GEMMPrepackedBatch: %v", tb, beta, err)
			}
			if bs.Completed != len(widths) {
				t.Fatalf("tb=%v beta=%g: Completed=%d, want %d", tb, beta, bs.Completed, len(widths))
			}
			for i := range items {
				if errs[i] != nil {
					t.Fatalf("tb=%v beta=%g item %d: %v", tb, beta, i, errs[i])
				}
				if !matrix.Equal(items[i].C, want[i], 0) {
					t.Errorf("tb=%v beta=%g item %d (n=%d): not bit-exact, max diff %g",
						tb, beta, i, widths[i], matrix.MaxAbsDiff(items[i].C, want[i]))
				}
			}
			// The shared plan is packed once and served every item: the
			// wave reuses one A-side operand per product.
			if bs.PackReused == 0 {
				t.Errorf("tb=%v beta=%g: PackReused = 0, want > 0", tb, beta)
			}
		}
	}
}

// TestGEMMBatchStrided: the equal-shape strided form must agree with
// the reference per item, and reject buffers that cannot hold the batch.
func TestGEMMBatchStrided(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(83))
	m, k, n, count := 24, 16, 20, 6
	lda, ldb, ldc := m+1, k+2, m
	sa, sb, sc := lda*k+3, ldb*n, ldc*n
	a := make([]float64, count*sa)
	b := make([]float64, count*sb)
	cbuf := make([]float64, count*sc)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for i := range cbuf {
		cbuf[i] = rng.NormFloat64()
	}
	want := make([]*matrix.Dense, count)
	for i := 0; i < count; i++ {
		want[i] = matrix.FromSlice(cbuf[i*sc:], m, n, ldc).Clone()
		matrix.RefGEMM(false, false, 2, matrix.FromSlice(a[i*sa:], m, k, lda),
			matrix.FromSlice(b[i*sb:], k, n, ldb), 0.5, want[i])
	}
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile}
	bs, errs, err := GEMMBatchStrided(context.Background(), pool, opts, false, false,
		m, k, n, 2, a, lda, sa, b, ldb, sb, 0.5, cbuf, ldc, sc, count)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Completed != count {
		t.Fatalf("Completed = %d, want %d", bs.Completed, count)
	}
	for i := 0; i < count; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		got := matrix.FromSlice(cbuf[i*sc:], m, n, ldc)
		if !matrix.Equal(got, want[i], tol(m, k, n)) {
			t.Errorf("item %d: max diff %g", i, matrix.MaxAbsDiff(got, want[i]))
		}
	}
	if _, _, err := GEMMBatchStrided(context.Background(), pool, opts, false, false,
		m, k, n, 2, a, lda, sa, b, ldb, sb, 0.5, cbuf[:count*sc-1], ldc, sc, count); !errors.Is(err, ErrDimension) {
		t.Fatalf("short C buffer: err = %v, want ErrDimension", err)
	}
	if _, _, err := GEMMBatchStrided(context.Background(), pool, opts, false, false,
		m, k, n, 2, a, lda, lda*(k-1)+m-1, b, ldb, sb, 0.5, cbuf, ldc, sc, count); !errors.Is(err, ErrDimension) {
		t.Fatalf("overlapping A stride: err = %v, want ErrDimension", err)
	}
}

// TestGEMMBatchPerItemIsolation: a member that fails validation or
// arrives with an expired context is dropped from the wave with a typed
// error and an untouched (or exactly β-scaled) C, while its siblings
// complete normally.
func TestGEMMBatchPerItemIsolation(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(84))
	opts := Options{Curve: layout.Hilbert, Alg: Standard, Tile: testTile}
	n := 48
	mk := func() BatchItem {
		return BatchItem{Alpha: 1, Beta: 0.5,
			A: matrix.Random(n, n, rng), B: matrix.Random(n, n, rng), C: matrix.Random(n, n, rng)}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	items := []BatchItem{mk(), mk(), mk(), mk()}
	items[1].B = matrix.Random(n+1, n, rng) // inner dimensions disagree
	items[2].Ctx = cancelled
	before2 := items[2].C.Clone()
	want := make([]*matrix.Dense, len(items))
	for i := range items {
		if i == 1 || i == 2 {
			continue
		}
		want[i] = items[i].C.Clone()
		matrix.RefGEMM(false, false, 1, items[i].A, items[i].B, 0.5, want[i])
	}

	bs, errs, err := GEMMBatch(context.Background(), pool, opts, items)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Items != 3 || bs.Completed != 2 {
		t.Fatalf("Items=%d Completed=%d, want 3/2", bs.Items, bs.Completed)
	}
	if !errors.Is(errs[1], ErrDimension) {
		t.Fatalf("invalid item: err = %v, want ErrDimension", errs[1])
	}
	if !errors.Is(errs[2], context.Canceled) {
		t.Fatalf("cancelled item: err = %v, want context.Canceled", errs[2])
	}
	// "Not started" contract: the expired member's C is untouched — not
	// even β-scaled.
	if !matrix.Equal(items[2].C, before2, 0) {
		t.Fatal("cancelled member's C was modified")
	}
	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("sibling %d: %v", i, errs[i])
		}
		if !matrix.Equal(items[i].C, want[i], tol(n, n, n)) {
			t.Errorf("sibling %d: max diff %g", i, matrix.MaxAbsDiff(items[i].C, want[i]))
		}
	}
}

// TestGEMMBatchDeadlineMidWave: a member whose context expires while
// the wave is running is dropped with a typed error and a C that is
// either untouched or exactly β-scaled — never a partial product —
// while members with live contexts are unaffected.
func TestGEMMBatchDeadlineMidWave(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(85))
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile}
	n := 64
	const count = 16
	ictx, cancel := context.WithCancel(context.Background())
	items := make([]BatchItem, count)
	before := make([]*matrix.Dense, count)
	want := make([]*matrix.Dense, count)
	for i := range items {
		items[i] = BatchItem{Alpha: 1, Beta: 0.5,
			A: matrix.Random(n, n, rng), B: matrix.Random(n, n, rng), C: matrix.Random(n, n, rng)}
		before[i] = items[i].C.Clone()
		want[i] = items[i].C.Clone()
		matrix.RefGEMM(false, false, 1, items[i].A, items[i].B, 0.5, want[i])
		if i%2 == 1 {
			items[i].Ctx = ictx
		}
	}
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	_, errs, err := GEMMBatch(context.Background(), pool, opts, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if errs[i] == nil {
			if !matrix.Equal(items[i].C, want[i], tol(n, n, n)) {
				t.Errorf("item %d: completed but wrong, max diff %g", i, matrix.MaxAbsDiff(items[i].C, want[i]))
			}
			continue
		}
		if i%2 == 0 {
			t.Fatalf("item %d has no deadline but failed: %v", i, errs[i])
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, errs[i])
		}
		scaled := before[i].Clone()
		scaled.Scale(0.5)
		if !matrix.Equal(items[i].C, before[i], 0) && !matrix.Equal(items[i].C, scaled, 0) {
			t.Errorf("item %d: dropped member's C is neither untouched nor exactly β-scaled", i)
		}
	}
}

// TestGEMMBatchWaveCancel: cancelling the wave context drops every
// unfinished member with a typed error naming the cause; no C ends in a
// partial state.
func TestGEMMBatchWaveCancel(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(86))
	opts := Options{Curve: layout.Hilbert, Alg: Standard, Tile: testTile}
	n := 64
	const count = 24
	items := make([]BatchItem, count)
	for i := range items {
		items[i] = BatchItem{Alpha: 1, Beta: 1,
			A: matrix.Random(n, n, rng), B: matrix.Random(n, n, rng), C: matrix.New(n, n)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Microsecond)
		cancel()
	}()
	_, errs, err := GEMMBatch(ctx, pool, opts, items)
	if err != nil {
		// The whole wave may be rejected if cancellation wins the race to
		// the entry check; that is a valid outcome of this schedule.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		return
	}
	okCount := 0
	for i := range items {
		if errs[i] == nil {
			okCount++
			continue
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, errs[i])
		}
	}
	t.Logf("wave cancel: %d/%d items completed before the cut", okCount, count)
}

// TestStressBatchFaultInjection: under injected panics, allocation
// failures, and delays, a wave must never let a panic escape, and every
// member must end in exactly one of the contract states — completed and
// numerically correct, or failed with an error that unwraps to the
// injected fault (or to the wave-abort wrapper naming it). A failed
// member's C must be untouched or exactly β-scaled (β=1 here, so:
// unchanged) — never a partial product.
func TestStressBatchFaultInjection(t *testing.T) {
	if !faultinject.Enabled() {
		faultinject.Configure(faultinject.Config{
			PanicProb: 0.02, AllocProb: 0.02, DelayProb: 0.01,
			Delay: 50 * time.Microsecond, Seed: 19,
		})
		defer faultinject.Disable()
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(87))
	n := 48
	const count = 6
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, Tile: testTile, FastCutoff: 1}
	zero := matrix.New(n, n)
	A := make([]*matrix.Dense, count)
	B := make([]*matrix.Dense, count)
	want := make([]*matrix.Dense, count)
	for i := 0; i < count; i++ {
		A[i] = matrix.Random(n, n, rng)
		B[i] = matrix.Random(n, n, rng)
		want[i] = matrix.New(n, n)
		matrix.RefGEMM(false, false, 1, A[i], B[i], 0, want[i])
	}
	for iter := 0; iter < 30; iter++ {
		items := make([]BatchItem, count)
		for i := range items {
			items[i] = BatchItem{Alpha: 1, Beta: 1, A: A[i], B: B[i], C: matrix.New(n, n)}
		}
		_, errs, err := GEMMBatch(context.Background(), pool, opts, items)
		if err != nil {
			var fault *faultinject.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("iter %d: wave error does not unwrap to injected fault: %v", iter, err)
			}
			for i := range items {
				if !matrix.Equal(items[i].C, zero, 0) {
					t.Fatalf("iter %d: wave rejected but item %d's C was touched", iter, i)
				}
			}
			continue
		}
		for i := range items {
			if errs[i] == nil {
				if !matrix.Equal(items[i].C, want[i], tol(n, n, n)) {
					t.Fatalf("iter %d item %d: successful member under faults is wrong (max diff %g)",
						iter, i, matrix.MaxAbsDiff(items[i].C, want[i]))
				}
				continue
			}
			var fault *faultinject.Fault
			if !errors.As(errs[i], &fault) {
				t.Fatalf("iter %d item %d: error does not unwrap to injected fault: %v", iter, i, errs[i])
			}
			// β=1: a dropped member's C must be exactly its input (zero).
			if !matrix.Equal(items[i].C, zero, 0) {
				t.Fatalf("iter %d item %d: failed member's C holds a partial product", iter, i)
			}
		}
	}
}

// TestBatchZeroAllocPerItem: at n=512-class shapes a steady-state wave
// performs no allocations per item — doubling the wave size must not
// change the allocation count. The absolute count is wave-level
// bookkeeping (slices, stats, runner closures) whose number does not
// depend on the item count; it plateaus by a handful of items (tiny
// waves land in smaller slice size classes), so the comparison is run
// past the plateau.
func TestBatchZeroAllocPerItem(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime bookkeeping allocations")
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(88))
	n := 512
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	const big = 16
	A := make([]*matrix.Dense, big)
	B := make([]*matrix.Dense, big)
	C := make([]*matrix.Dense, big)
	for i := 0; i < big; i++ {
		A[i] = matrix.Random(n, n, rng)
		B[i] = matrix.Random(n, n, rng)
		C[i] = matrix.New(n, n)
	}
	run := func(count int) float64 {
		items := make([]BatchItem, count)
		for i := range items {
			items[i] = BatchItem{Alpha: 1, Beta: 0, A: A[i], B: B[i], C: C[i]}
		}
		// Warm the buffer pool once so the measured runs are steady-state.
		if _, errs, err := GEMMBatch(context.Background(), pool, opts, items); err != nil {
			t.Fatal(err)
		} else {
			for i, e := range errs {
				if e != nil {
					t.Fatalf("item %d: %v", i, e)
				}
			}
		}
		return testing.AllocsPerRun(1, func() {
			if _, _, err := GEMMBatch(context.Background(), pool, opts, items); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(big / 2)
	large := run(big)
	perItem := (large - small) / float64(big/2)
	t.Logf("allocs: wave of %d = %.0f, wave of %d = %.0f (%.2f per extra item)",
		big/2, small, big, large, perItem)
	if perItem != 0 {
		t.Errorf("per-item allocations = %.2f, want 0 (wave of %d: %.0f allocs, wave of %d: %.0f)",
			perItem, big/2, small, big, large)
	}
}
