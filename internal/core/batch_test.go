package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestGEMMBatchMatchesSingleCalls: the batched wave must be bit-exact
// against N independent GEMMCtx calls — not merely within tolerance.
// Every item is planned as its single-call twin is — split, geometry,
// kernel — and runs the same block loop, so its accumulation order is
// its twin's regardless of how the wave schedules items. The wave mixes
// unsplit shapes with wide and lean ones that split (Figure 3) in m, in
// n, and in k.
func TestGEMMBatchMatchesSingleCalls(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(81))
	shapes := [][3]int{{40, 24, 56}, {300, 20, 20}, {64, 64, 64}, {20, 24, 250}, {64, 48, 17}, {24, 300, 20}}
	algs := []Alg{Standard, Winograd}
	for _, cv := range layout.RecursiveCurves {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for bi, beta := range []float64{0, 1, 0.5} {
					opts := Options{Curve: cv, Alg: algs[bi%len(algs)], Tile: testTile}
					items := make([]BatchItem, len(shapes))
					want := make([]*matrix.Dense, len(shapes))
					split := 0
					for i, s := range shapes {
						m, k, n := s[0], s[1], s[2]
						A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
						C := matrix.Random(m, n, rng)
						want[i] = C.Clone()
						st, err := GEMMCtx(context.Background(), pool, opts, ta, tb, -1.25, A, B, beta, want[i])
						if err != nil {
							t.Fatalf("%v ta=%v tb=%v beta=%g item %d: single call: %v", cv, ta, tb, beta, i, err)
						}
						if st.Blocks > 1 {
							split++
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
					if split != 3 {
						t.Fatalf("%v: %d of the single calls split, want 3 (test premise)", cv, split)
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

// expiring is a context that expires after it has been asked a fixed
// number of times: a member's deadline that fires at a chosen point of
// its run, whatever the scheduler does.
type expiring struct {
	context.Context
	left atomic.Int64
}

func expireAfter(asks int64) *expiring {
	e := &expiring{Context: context.Background()}
	e.left.Store(asks)
	return e
}

func (e *expiring) Err() error {
	if e.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestGEMMBatchDeadlineMidWave: a member whose context expires while
// the wave is running is dropped with a typed error and a C that is
// untouched or holds its β-scaled input plus whole completed C blocks —
// never a partial product — while members with live contexts are
// unaffected. A member asks its context when it starts and around each
// C block's product, so the odd members expire in turn before they
// start (C untouched), inside their only block (C exactly β-scaled)
// and, the wide ones that split into five C blocks, part of the way
// through them.
func TestGEMMBatchDeadlineMidWave(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(85))
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile}
	const count = 16
	items := make([]BatchItem, count)
	before := make([]*matrix.Dense, count)
	want := make([]*matrix.Dense, count)
	for i := range items {
		m, k, n := 64, 64, 64
		if i%4 >= 2 {
			m, k, n = waveM, waveK, waveN
		}
		items[i] = BatchItem{Alpha: 1, Beta: 0.5,
			A: matrix.Random(m, k, rng), B: matrix.Random(k, n, rng), C: matrix.Random(m, n, rng)}
		before[i] = items[i].C.Clone()
		want[i] = items[i].C.Clone()
		if _, err := GEMMCtx(context.Background(), pool, opts, false, false, 1, items[i].A, items[i].B, 0.5, want[i]); err != nil {
			t.Fatal(err)
		}
		switch i % 8 {
		case 1:
			items[i].Ctx = expireAfter(0)
		case 5:
			items[i].Ctx = expireAfter(2)
		case 3, 7:
			items[i].Ctx = expireAfter(int64(3 + i%8))
		}
	}
	_, errs, err := GEMMBatch(context.Background(), pool, opts, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if i%2 == 0 {
			if errs[i] != nil {
				t.Fatalf("item %d has no deadline but failed: %v", i, errs[i])
			}
			if !matrix.Equal(items[i].C, want[i], 0) {
				t.Errorf("item %d: completed but differs from its single call, max diff %g", i, matrix.MaxAbsDiff(items[i].C, want[i]))
			}
			continue
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, errs[i])
		}
		scaled := before[i].Clone()
		scaled.Scale(0.5)
		switch i % 8 {
		case 1:
			if !matrix.Equal(items[i].C, before[i], 0) {
				t.Errorf("item %d: expired before it started, yet its C was modified", i)
			}
		case 5:
			if !matrix.Equal(items[i].C, scaled, 0) {
				t.Errorf("item %d: dropped inside its only block, C is not exactly β-scaled", i)
			}
		default:
			if done := blocksScaledOrComplete(t, fmt.Sprintf("item %d", i), opts.Tile, waveK, items[i].C, scaled, want[i]); done == 0 || done == 5 {
				t.Errorf("item %d: %d of 5 C blocks complete, want some but not all", i, done)
			}
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
// member's C must be untouched or β-scaled (β=1 here, so: unchanged)
// plus whole completed C blocks — never a partial product. The last two
// members are wide ones that split into five C blocks; the others are a
// single block, so a failed one's C is exactly its input.
func TestStressBatchFaultInjection(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(87))
	const count = 6
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, Tile: testTile, FastCutoff: 1}
	A := make([]*matrix.Dense, count)
	B := make([]*matrix.Dense, count)
	want := make([]*matrix.Dense, count)
	zero := make([]*matrix.Dense, count)
	for i := 0; i < count; i++ {
		m, k, n := 48, 48, 48
		if i >= count-2 {
			m, k, n = waveM, waveK, waveN
		}
		A[i] = matrix.Random(m, k, rng)
		B[i] = matrix.Random(k, n, rng)
		want[i], zero[i] = matrix.New(m, n), matrix.New(m, n)
		matrix.RefGEMM(false, false, 1, A[i], B[i], 0, want[i])
	}
	failed, failedSplit := 0, 0
	defer func() {
		t.Logf("batch fault stress: %d members failed (injected), %d of them split ones", failed, failedSplit)
	}()
	for iter := 0; iter < 30; iter++ {
		items := make([]BatchItem, count)
		for i := range items {
			items[i] = BatchItem{Alpha: 1, Beta: 1, A: A[i], B: B[i], C: zero[i].Clone()}
		}
		_, errs, err := GEMMBatch(context.Background(), pool, opts, items)
		if err != nil {
			var fault *faultinject.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("iter %d: wave error does not unwrap to injected fault: %v", iter, err)
			}
			for i := range items {
				if !matrix.Equal(items[i].C, zero[i], 0) {
					t.Fatalf("iter %d: wave rejected but item %d's C was touched", iter, i)
				}
			}
			continue
		}
		for i := range items {
			m, k, n := A[i].Rows, A[i].Cols, B[i].Cols
			if errs[i] == nil {
				if !matrix.Equal(items[i].C, want[i], tol(m, k, n)) {
					t.Fatalf("iter %d item %d: successful member under faults is wrong (max diff %g)",
						iter, i, matrix.MaxAbsDiff(items[i].C, want[i]))
				}
				continue
			}
			var fault *faultinject.Fault
			if !errors.As(errs[i], &fault) {
				t.Fatalf("iter %d item %d: error does not unwrap to injected fault: %v", iter, i, errs[i])
			}
			// β=1: every C block of a dropped member is exactly its input
			// (zero) or the whole product.
			ms, _, ns := opts.Tile.SplitDims(m, k, n)
			if blocks := len(ms) * len(ns); (blocks == 5) != (i >= count-2) || blocks != 1 && blocks != 5 {
				t.Fatalf("item %d is cut into %d C blocks (test premise)", i, blocks)
			}
			failed++
			if len(ms) > 1 {
				failedSplit++
			}
			for _, sm := range ms {
				for _, sn := range ns {
					got := items[i].C.View(sm.Off, sn.Off, sm.Len, sn.Len)
					if !matrix.Equal(got, zero[i].View(sm.Off, sn.Off, sm.Len, sn.Len), 0) &&
						!matrix.Equal(got, want[i].View(sm.Off, sn.Off, sm.Len, sn.Len), tol(m, k, n)) {
						t.Fatalf("iter %d item %d: failed member's C block at (%d,%d) holds a partial product", iter, i, sm.Off, sn.Off)
					}
				}
			}
		}
	}
}

// TestGEMMBatchPhaseAccounting: a wave's wall time is apportioned to
// the three phase timers by the share of task time each phase took —
// the paper's Section 4 accounting: at 64³ about half a member is pack
// and unpack — so the conversions are not reported as zero and the
// timers sum to the call. Wall time is judged best of three: under
// `go test ./...` other packages' tests compete for the CPUs.
func TestGEMMBatchPhaseAccounting(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(89))
	items := make([]BatchItem, 400)
	for i := range items {
		items[i] = BatchItem{Alpha: 1, A: matrix.Random(64, 64, rng), B: matrix.Random(64, 64, rng), C: matrix.New(64, 64)}
	}
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	var off float64
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		bs, _, err := GEMMBatch(context.Background(), pool, opts, items)
		wall := time.Since(t0)
		if err != nil || bs.Completed != len(items) {
			t.Fatalf("wave: %v, %d of %d completed", err, bs.Completed, len(items))
		}
		if bs.ConvertIn <= 0 || bs.Compute <= 0 || bs.ConvertOut <= 0 {
			t.Fatalf("phase timers: in=%v compute=%v out=%v, want all positive", bs.ConvertIn, bs.Compute, bs.ConvertOut)
		}
		if off = 1 - float64(bs.Total())/float64(wall); off >= 0 && off <= 0.05 {
			return
		}
	}
	t.Errorf("Total() is %.1f%% short of the call's wall time at best of three, want within 5%%", 100*off)
}

// TestBatchZeroAllocPerItem: at n=512-class shapes a steady-state wave
// performs no allocations per item — doubling the wave size must not
// change the allocation count. The same holds for a wide item that
// splits (1024×256×48: 8×2 segments of A a member): a runner's
// transient-plan headers grow once, on its first member, and nothing
// after. The absolute count is wave-level bookkeeping (slices, stats,
// runner closures) whose number does not depend on the item count; it
// plateaus by a handful of items (tiny waves land in smaller slice size
// classes), so the comparison is run past the plateau. The split wave
// runs on one worker: AllocsPerRun pins GOMAXPROCS to 1, and whether a
// second runner gets the CPU — and grows headers of its own — before a
// wave of millisecond members has drained depends on the wave's length.
func TestBatchZeroAllocPerItem(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime bookkeeping allocations")
	}
	rng := rand.New(rand.NewSource(88))
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	const big = 16
	for _, sh := range [][4]int{{512, 512, 512, 2}, {1024, 256, 48, 1}} {
		m, k, n := sh[0], sh[1], sh[2]
		pool := sched.NewPool(sh[3])
		all := make([]BatchItem, big)
		for i := range all {
			all[i] = BatchItem{Alpha: 1, Beta: 0, A: matrix.Random(m, k, rng), B: matrix.Random(k, n, rng), C: matrix.New(m, n)}
		}
		// No collection while measuring: one would empty the buffer
		// pool under a wave and turn its reuse into fresh allocations.
		runtime.GC()
		restore := debug.SetGCPercent(-1)
		run := func(count int) float64 {
			items := all[:count]
			// Warm the buffer pool once so the measured runs are steady-state.
			bs, errs, err := GEMMBatch(context.Background(), pool, opts, items)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("item %d: %v", i, e)
				}
			}
			if split := bs.Blocks > count; split != (m != n) {
				t.Fatalf("%dx%dx%d: %d blocks for %d items (test premise)", m, k, n, bs.Blocks, count)
			}
			return testing.AllocsPerRun(1, func() {
				if _, _, err := GEMMBatch(context.Background(), pool, opts, items); err != nil {
					t.Fatal(err)
				}
			})
		}
		small := run(big / 2)
		large := run(big)
		debug.SetGCPercent(restore)
		pool.Close() // now: an open pool's idle workers poll on timers, which allocate
		perItem := (large - small) / float64(big/2)
		t.Logf("%dx%dx%d allocs: wave of %d = %.0f, wave of %d = %.0f (%.2f per extra item)",
			m, k, n, big/2, small, big, large, perItem)
		if perItem != 0 {
			t.Errorf("%dx%dx%d: per-item allocations = %.2f, want 0 (wave of %d: %.0f allocs, wave of %d: %.0f)",
				m, k, n, perItem, big/2, small, big, large)
		}
	}
}
