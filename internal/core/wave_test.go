package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tile"
)

// The contracts of the split block wave: admission charges the
// transient plan once and walks it in groups under a budget — an operand
// whose segments each have one consuming block has no plan, its blocks
// pack it — every C block ends β-scaled or complete under cancellation
// and injected panics, and Stats and the trace describe the wave that
// ran.

// waveShape cuts into 5×1 C blocks of 60×20 under testTile: a wave on a
// 2-worker pool, one column of blocks, so A's five segments are deferred
// to the blocks that multiply them.
const waveM, waveK, waveN = 300, 20, 20

// blocksScaledOrComplete checks the per-block atomicity contract:
// every C block of the m×n result holds, bit for bit, its β-scaled input
// (+0 after β = 0) or the finished product. It returns how many were
// complete.
func blocksScaledOrComplete(t *testing.T, what string, cfg tile.Config, k int, C, scaled, want *matrix.Dense) int {
	t.Helper()
	ms, _, ns := cfg.SplitDims(C.Rows, k, C.Cols)
	complete := 0
	for _, sm := range ms {
		for _, sn := range ns {
			got := C.View(sm.Off, sn.Off, sm.Len, sn.Len)
			switch {
			case sameBits(got, want.View(sm.Off, sn.Off, sm.Len, sn.Len)):
				complete++
			case !sameBits(got, scaled.View(sm.Off, sn.Off, sm.Len, sn.Len)):
				t.Fatalf("%s: C block at (%d,%d) is neither β-scaled nor complete", what, sm.Off, sn.Off)
			}
		}
	}
	return complete
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// batchOfOne runs product it as a one-item GEMMBatch on a copy of C0 and
// holds it to its GEMMCtx twin, which left want and reported st: a wave
// of one member is the call, so the bits and what Stats say was planned,
// admitted and packed are the twin's.
func batchOfOne(t *testing.T, what string, pool *sched.Pool, opts Options, it BatchItem, C0, want *matrix.Dense, st *Stats) *BatchStats {
	t.Helper()
	got := C0.Clone()
	it.C = got
	bs, errs, err := GEMMBatch(context.Background(), pool, opts, []BatchItem{it})
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		t.Fatalf("%s: one-item GEMMBatch: %v", what, err)
	}
	b := &bs.Stats
	if b.Alg != st.Alg || fmt.Sprint(b.Degraded) != fmt.Sprint(st.Degraded) || b.EstimatedBytes != st.EstimatedBytes ||
		b.Blocks != st.Blocks || b.PackDeferred != st.PackDeferred || b.ConvertBytes != st.ConvertBytes {
		t.Errorf("%s: one-item GEMMBatch ran %v %q, est %d, %d blocks, %d deferred, %d converted; GEMMCtx %v %q, est %d, %d blocks, %d deferred, %d converted",
			what, b.Alg, b.Degraded, b.EstimatedBytes, b.Blocks, b.PackDeferred, b.ConvertBytes,
			st.Alg, st.Degraded, st.EstimatedBytes, st.Blocks, st.PackDeferred, st.ConvertBytes)
	}
	if !matrix.Equal(got, want, 0) {
		t.Errorf("%s: one-item GEMMBatch bits differ from GEMMCtx's, max diff %g", what, matrix.MaxAbsDiff(got, want))
	}
	return bs
}

// consumerCopies is the bytes the blocks of a standard-recursion wave
// pack of an operand cut into rs×cs segments on a padded pr×pc, each
// segment brought by uses blocks: every segment of an operand stored
// transposed, else those short of their padded extent — the others are
// read in place (Prepacked.mat).
func consumerCopies(rs, cs []tile.Seg, pr, pc, uses int, trans bool) int64 {
	n := 0
	for _, r := range rs {
		for _, c := range cs {
			if trans || r.Len != pr || c.Len != pc {
				n++
			}
		}
	}
	return 8 * int64(n*uses*pr*pc)
}

// TestWaveMemBudgetConsumerPacks: the transient plan is charged once per
// call; a budget it exceeds moves its segments to the blocks that
// multiply them — each block brings an A and a B segment for every step
// of its k chain, read in place or packed (consumerCopies; one row has A
// stored transposed, so its blocks pack it) — and the blocks, the bits
// and the one epilogue per C block stay. The least a call can run in is
// one block multiplication's buffers on the serial rung: a product tile,
// one segment of each operand and one kernel scratch; a byte less
// rejects the call before C is touched. Beside every call runs its one-item batch, which degrades and
// is refused exactly as the call is.
func TestWaveMemBudgetConsumerPacks(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(161))
	for _, tc := range []struct {
		m, k, n int
		blocks  int
		// budget is the cut taken off the whole-plan estimate, in A and
		// B segments; minimal instead is the least the call runs in.
		lessA, lessB int
		minimal      bool
		ta           bool // A stored transposed
	}{
		{m: 300, k: 20, n: 120, blocks: 10, lessA: 2},
		{m: 120, k: 20, n: 300, blocks: 10, lessB: 2},
		{m: 300, k: 20, n: 120, blocks: 10, minimal: true, ta: true},
		{m: 20, k: 300, n: 300, blocks: 25, minimal: true},
	} {
		for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor} {
			what := fmt.Sprintf("%dx%dx%d %v ta=%v", tc.m, tc.k, tc.n, cv, tc.ta)
			A, B := opMat(tc.m, tc.k, tc.ta, rng), matrix.Random(tc.k, tc.n, rng)
			C := matrix.Random(tc.m, tc.n, rng)
			opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
			beta := 0.5 // the accumulating epilogue; the minimal rows store
			if tc.minimal {
				beta = 0
			}
			want := C.Clone()
			full, err := GEMM(pool, opts, tc.ta, false, 1.5, A, B, beta, want)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Degraded) != 0 || full.Blocks != tc.blocks {
				t.Fatalf("%s: unbudgeted run: blocks=%d notes=%v", what, full.Blocks, full.Degraded)
			}
			item := BatchItem{TransA: tc.ta, Alpha: 1.5, A: A, B: B, Beta: beta}
			batchOfOne(t, what+", unbudgeted", pool, opts, item, C, want, full)
			ms, ks, ns := opts.Tile.SplitDims(tc.m, tc.k, tc.n)
			tile := 8 * int64(full.PaddedM*full.PaddedN)
			segA, segB := 8*int64(full.PaddedM*full.PaddedK), 8*int64(full.PaddedK*full.PaddedN)
			least := tile + segA + segB + 8*int64(full.TileM*full.TileK+full.TileK*full.TileN)
			// An operand one row or column of C blocks consumes has no plan.
			heldA, heldB, deferred := segA, segB, 0
			if len(ns) == 1 {
				heldA, deferred = 0, len(ms)*len(ks)
			}
			if len(ms) == 1 {
				heldB, deferred = 0, len(ks)*len(ns)
			}
			plan := int64(len(ks)) * (int64(len(ms))*heldA + int64(len(ns))*heldB)
			if full.PackDeferred != deferred {
				t.Fatalf("%s: PackDeferred = %d, want %d", what, full.PackDeferred, deferred)
			}
			// The whole plan, and at least one product tile per worker.
			if lo := plan + 2*tile; full.EstimatedBytes < lo {
				t.Fatalf("%s: EstimatedBytes = %d, want at least the plan's %d", what, full.EstimatedBytes, lo)
			}

			opts.MemBudget = full.EstimatedBytes - int64(tc.lessA)*heldA - int64(tc.lessB)*heldB
			if tc.minimal {
				opts.MemBudget = least
			}
			got := C.Clone()
			st, err := GEMM(pool, opts, tc.ta, false, 1.5, A, B, beta, got)
			if err != nil {
				t.Fatalf("%s: budgeted run: %v", what, err)
			}
			if st.Alg != Standard || st.Serial != tc.minimal || st.Blocks != tc.blocks || st.EstimatedBytes > opts.MemBudget {
				t.Errorf("%s: alg=%v serial=%v blocks=%d est=%d budget=%d", what, st.Alg, st.Serial, st.Blocks, st.EstimatedBytes, opts.MemBudget)
			}
			if n := len(st.Degraded); n == 0 || !strings.Contains(st.Degraded[n-1], "its blocks pack them") {
				t.Errorf("%s: Degraded = %q, want a last note that its blocks pack them", what, st.Degraded)
			}
			batchOfOne(t, what+", budgeted", pool, opts, item, C, got, st)
			if !matrix.Equal(got, want, 0) {
				t.Errorf("%s: consumer packs changed the bits, max diff %g", what, matrix.MaxAbsDiff(got, want))
			}
			// Every block × k step brings its A and its B segment; those
			// not read in place are packed.
			pm, pk, pn := full.PaddedM, full.PaddedK, full.PaddedN
			packs := consumerCopies(ms, ks, pm, pk, len(ns), tc.ta) + consumerCopies(ks, ns, pk, pn, len(ms), false)
			if st.PackDeferred != 2*st.Blocks || st.ConvertBytes != int64(len(ms)*len(ns))*tile+packs {
				t.Errorf("%s: %d segments brought by their consumers, %d bytes converted; want %d and %d",
					what, st.PackDeferred, st.ConvertBytes, 2*st.Blocks, int64(len(ms)*len(ns))*tile+packs)
			}

			opts.MemBudget = least - 1
			untouched := C.Clone()
			if _, err := GEMM(pool, opts, tc.ta, false, 1.5, A, B, beta, untouched); !errors.Is(err, ErrMemBudget) {
				t.Fatalf("%s: err = %v, want ErrMemBudget", what, err)
			}
			if !matrix.Equal(untouched, C, 0) {
				t.Errorf("%s: admission rejected the call after touching C", what)
			}
			item.C = untouched
			if _, _, err := GEMMBatch(context.Background(), pool, opts, []BatchItem{item}); !errors.Is(err, ErrMemBudget) {
				t.Errorf("%s: one-item GEMMBatch: err = %v, want ErrMemBudget", what, err)
			}
			if !matrix.Equal(untouched, C, 0) {
				t.Errorf("%s: admission rejected the one-item batch after touching C", what)
			}
		}
	}
}

// TestWaveMemBudgetLeanTimesBig: a lean A against a big B under the
// default tiling — 48×2048 · 2048×2048, a 32 MiB packed B — runs whole
// inside tenant-sized budgets: one row of C blocks, so B is never held
// as a plan, only billed a segment per runner. The blocks read B in
// place; stored transposed, it is packed by them, 32 MiB more converted
// for the same bits. Budgeted or not, a call converts the same bytes.
func TestWaveMemBudgetLeanTimesBig(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(166))
	m, k, n := 48, 2048, 2048
	A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
	var want *matrix.Dense
	var inPlace int64
	for _, tb := range []bool{false, true} {
		opB := B
		if tb {
			opB = B.Transpose()
		}
		opts := Options{Curve: layout.ZMorton, Alg: Standard}
		got := matrix.New(m, n)
		full, err := GEMM(pool, opts, false, tb, 1, A, opB, 0, got)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, inPlace = got, full.ConvertBytes
		} else if full.ConvertBytes-inPlace != 8*int64(k*n) || !matrix.Equal(got, want, 0) {
			t.Errorf("B stored transposed: %d bytes converted, %d in place; want %d apart and the same bits (max diff %g)",
				full.ConvertBytes, inPlace, 8*k*n, matrix.MaxAbsDiff(got, want))
		}
		for _, budget := range []int64{2 << 20, 8 << 20, 32 << 20} {
			opts.MemBudget = budget
			got := matrix.New(m, n)
			st, err := GEMM(pool, opts, false, tb, 1, A, opB, 0, got)
			if err != nil {
				t.Fatalf("tb=%v budget %s: %v", tb, fmtBytes(budget), err)
			}
			if st.Alg != Standard || st.EstimatedBytes > budget || len(st.Degraded) != 0 {
				t.Errorf("tb=%v budget %s: alg=%v est=%d notes=%q", tb, fmtBytes(budget), st.Alg, st.EstimatedBytes, st.Degraded)
			}
			if st.PackDeferred == 0 || st.PackDeferred != full.PackDeferred || st.ConvertBytes != full.ConvertBytes {
				t.Errorf("tb=%v budget %s: %d segments deferred, %d bytes converted; unbudgeted %d and %d", tb, fmtBytes(budget),
					st.PackDeferred, st.ConvertBytes, full.PackDeferred, full.ConvertBytes)
			}
			if !matrix.Equal(got, want, 0) {
				t.Errorf("tb=%v budget %s: max diff %g", tb, fmtBytes(budget), matrix.MaxAbsDiff(got, want))
			}
		}
	}
}

// TestWaveDeferredSerialRung: a budget that admits only the serial rung
// takes the wave away but not the bill it was admitted on — A's segments
// are still brought one at a time by the block that multiplies them, now
// from the caller's goroutine, and the bits and the converted bytes are
// the wave's: none of A's when its blocks read it in place, all of them
// when A, stored transposed, is packed by them.
func TestWaveDeferredSerialRung(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(167))
	A, B := matrix.Random(waveM, waveK, rng), matrix.Random(waveK, waveN, rng)
	C := matrix.Random(waveM, waveN, rng)
	var want *matrix.Dense
	var inPlace int64
	for _, ta := range []bool{false, true} {
		opA := A
		if ta {
			opA = A.Transpose()
		}
		opts := Options{Curve: layout.Hilbert, Alg: Standard, Tile: testTile}
		wave := C.Clone()
		full, err := GEMM(pool, opts, ta, false, 1, opA, B, 0.5, wave)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, inPlace = wave, full.ConvertBytes
		} else if full.ConvertBytes-inPlace != 8*waveM*waveK {
			t.Errorf("A stored transposed: %d bytes converted, %d in place; want %d apart", full.ConvertBytes, inPlace, 8*waveM*waveK)
		}
		// Room for one runner's tile, A segment and scratch beside B, not two.
		opts.MemBudget = full.EstimatedBytes - 8*60*20
		got := C.Clone()
		st, err := GEMM(pool, opts, ta, false, 1, opA, B, 0.5, got)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Serial || len(st.Degraded) != 1 || st.EstimatedBytes > opts.MemBudget {
			t.Fatalf("ta=%v: serial=%v est=%d budget=%d notes=%q, want the serial rung", ta, st.Serial, st.EstimatedBytes, opts.MemBudget, st.Degraded)
		}
		if st.PackDeferred != 5 || full.PackDeferred != 5 || st.ConvertBytes != full.ConvertBytes {
			t.Errorf("ta=%v: PackDeferred = %d serial, %d wave; ConvertBytes %d and %d", ta, st.PackDeferred, full.PackDeferred, st.ConvertBytes, full.ConvertBytes)
		}
		if !matrix.Equal(got, want, 0) || !matrix.Equal(wave, want, 0) {
			t.Errorf("ta=%v: serial rung %g, wave %g from the in-place wave's bits", ta, matrix.MaxAbsDiff(got, want), matrix.MaxAbsDiff(wave, want))
		}
	}
}

// TestWaveCancelLeavesBlocksScaledOrComplete: cancelling a block wave
// at any point leaves every C block β-scaled or complete, reports how
// far it got with a typed error, and leaks neither goroutines nor
// pooled buffers.
func TestWaveCancelLeavesBlocksScaledOrComplete(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(162))
	m, k, n := 1200, 40, 40 // 10 C blocks
	A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
	C := matrix.Random(m, n, rng)
	opts := Options{Curve: layout.Hilbert, Alg: Winograd, Tile: testTile}
	want, scaled := C.Clone(), C.Clone()
	if st, err := GEMM(pool, opts, false, false, 1, A, B, 0.5, want); err != nil {
		t.Fatal(err)
	} else if st.PackDeferred != 10 {
		t.Fatalf("PackDeferred = %d, want A's 10 segments packed inside the wave (test premise)", st.PackDeferred)
	}
	scaled.Scale(0.5)
	before := runtime.NumGoroutine()
	cancelled := 0
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond} {
		got := C.Clone()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := GEMMCtx(ctx, pool, opts, false, false, 1, A, B, 0.5, got)
		cancel()
		if err == nil {
			if !matrix.Equal(got, want, 0) {
				t.Fatalf("delay %v: uncancelled run differs", delay)
			}
			continue
		}
		cancelled++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want context.Canceled", delay, err)
		}
		if matrix.Equal(got, C, 0) {
			continue // refused before β was applied
		}
		done := blocksScaledOrComplete(t, delay.String(), opts.Tile, k, got, scaled, want)
		if !strings.Contains(err.Error(), "of 10 blocks") {
			t.Errorf("delay %v: error %q does not say how far it got (%d blocks complete)", delay, err, done)
		}
	}
	t.Logf("%d of 6 runs cancelled", cancelled)
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d -> %d", before, g)
	}
}

// TestInPlaceProductFailureContract: a 64³ β = 0, α = 1 member is one
// small block multiplied where it lies — it reads A and B in place and
// its product is stored straight into C, unread — so a
// member that fails, panics or is cancelled after its block wrote C must
// zero C again, once every task under the block has joined (wave.body):
// β-scaled-or-complete, for β = 0. A failed member's C is bitwise +0
// (no -0), unless it never started, when it is its untouched input; a
// completed member's C is its twin's bits — the same product with A
// stored transposed, which packs. Under injected panics at every leaf
// and task, and under cancellations spread over a wave's wall time. The
// faulted and cancelled waves carry one more member, 256×16·16×32: four
// blocks its runner walks in turn, each packed, its tile stored by its
// first product and its region of a β = 0 C by its epilogue, which no
// pass zeroed ahead of them, so a failure leaves each block its twin's
// bits or bitwise +0, zeroed again once every task under it has joined.
// A runner claims a member before it runs — its slot's first, or one
// ahead of the member in hand (pullWave) — so a cancelled
// or faulted wave can leave a member unstarted below one that started:
// the waves run until each kind of failure has shown such a hole, and a
// hole is held to the not-started contract like any other. Beside each
// wave runs a lone in-place 256³ call, β = 0 on a sentinel C: eight
// serial bases of 4×4 tiles, each one leaf call (exec.base), so a fault
// or a cancellation lands between bases; it ends with its clean run's
// bits, its sentinel and "not started", or bitwise +0.
func TestInPlaceProductFailureContract(t *testing.T) {
	const n, count, multi = 64, 48, 4
	pool := sched.NewPool(2)
	defer pool.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(391))
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	split := tile.DefaultConfig // the tiles of opts, which cut the last member
	split.MicroM, split.MicroN = leaf.MicroM, leaf.MicroN
	A, B, C0, want := make([]*matrix.Dense, count+1), make([]*matrix.Dense, count+1), make([]*matrix.Dense, count+1), make([]*matrix.Dense, count+1)
	twins := make([]BatchItem, count+1)
	for i := range A {
		m, k, nn := n, n, n
		if i == count {
			m, k, nn = 256, 16, 32
		}
		A[i], B[i], C0[i] = matrix.Random(m, k, rng), matrix.Random(k, nn, rng), matrix.Random(m, nn, rng)
		want[i] = C0[i].Clone()
		twins[i] = BatchItem{TransA: true, Alpha: 1, A: A[i].Transpose(), B: B[i], C: want[i]}
	}
	if _, errs, err := GEMMBatch(ctx, pool, opts, twins); err != nil || errors.Join(errs...) != nil {
		t.Fatalf("twins: %v %v", err, errors.Join(errs...))
	}
	wave := func() []BatchItem {
		items := make([]BatchItem, count+1)
		for i := range items {
			items[i] = BatchItem{Alpha: 1, A: A[i], B: B[i], C: C0[i].Clone()}
		}
		return items
	}
	// check holds every member to the contract and counts the members that
	// failed after they started, and the multi-block member's failures that
	// left some of its blocks complete and some +0.
	partial := 0
	check := func(what string, items []BatchItem, errs []error, err error) (started, holes int) {
		t.Helper()
		var unstarted []int
		last := -1 // the last member that started
		for i, it := range items {
			if err == nil && (errs[i] == nil || !strings.Contains(errs[i].Error(), "not started")) {
				last = i
			}
			switch {
			case err == nil && errs[i] == nil:
				if !matrix.Equal(it.C, want[i], 0) {
					t.Fatalf("%s: item %d completed %g from its twin's bits", what, i, matrix.MaxAbsDiff(it.C, want[i]))
				}
			case err != nil || strings.Contains(errs[i].Error(), "not started"):
				if !matrix.Equal(it.C, C0[i], 0) {
					t.Fatalf("%s: item %d never started (%v), yet its C was touched", what, i, errors.Join(err, errs[i]))
				}
				unstarted = append(unstarted, i)
			case i == count:
				started++
				if done := blocksScaledOrComplete(t, fmt.Sprintf("%s: item %d (%v)", what, i, errs[i]), split, 16, it.C, matrix.New(256, 32), want[i]); done > 0 {
					partial++
				}
			default:
				started++
				for j := 0; j < n; j++ {
					for r, v := range it.C.Data[j*it.C.Stride : j*it.C.Stride+n] {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s: item %d failed (%v) with %g at (%d,%d) of its C, want +0", what, i, errs[i], v, r, j)
						}
					}
				}
			}
		}
		for _, i := range unstarted {
			if i < last {
				holes++
			}
		}
		return started, holes
	}
	const ln = 256
	LA, LB, lone0 := matrix.Random(ln, ln, rng), matrix.Random(ln, ln, rng), matrix.New(ln, ln)
	lone0.Fill(7.25)
	loneWant := lone0.Clone()
	if st, err := GEMM(pool, opts, false, false, 1, LA, LB, 0, loneWant); err != nil || st.ConvertBytes != 0 || st.Blocks != 1 {
		t.Fatalf("lone %d³: %v; want one block in place (test premise)", ln, err)
	}
	// lone runs the lone call under ctx and reports whether it failed after it started.
	lone := func(what string, ctx context.Context) int {
		t.Helper()
		C := lone0.Clone()
		_, err := GEMMCtx(ctx, pool, opts, false, false, 1, LA, LB, 0, C)
		switch {
		case err == nil:
			if !sameBits(C, loneWant) {
				t.Fatalf("%s: lone %d³ completed %g from its clean run's bits", what, ln, matrix.MaxAbsDiff(C, loneWant))
			}
		case sameBits(C, lone0):
			if !strings.Contains(err.Error(), "not started") {
				t.Fatalf("%s: lone %d³ left C untouched, yet the error is %q", what, ln, err)
			}
		case !sameBits(C, matrix.New(ln, ln)):
			t.Fatalf("%s: lone %d³ failed (%v) with C neither its sentinel nor bitwise +0", what, ln, err)
		default:
			return 1
		}
		return 0
	}
	items := wave()[:count]
	bs, errs, err := GEMMBatch(ctx, pool, opts, items)
	if err != nil {
		t.Fatal(err)
	}
	if check("no fault", items, errs, err); bs.ConvertBytes != 0 || bs.PackDeferred != 2*count {
		t.Fatalf("%d bytes converted, %d segments in place; want 0 and %d (test premise)", bs.ConvertBytes, bs.PackDeferred, 2*count)
	}
	if ms, _, ns := split.SplitDims(256, 16, 32); len(ms)*len(ns) != multi {
		t.Fatalf("the last member cuts into %d blocks, want %d (test premise)", len(ms)*len(ns), multi)
	}

	faultinject.Configure(faultinject.Config{PanicProb: 0.04, Seed: 392})
	faulted, faultHoles, loneFaulted := 0, 0, 0
	for iter := 0; iter < 20 || faultHoles == 0 && iter < 1000; iter++ {
		items := wave()
		_, errs, err := GEMMBatch(ctx, pool, opts, items)
		started, holes := check(fmt.Sprintf("faults, wave %d", iter), items, errs, err)
		faulted, faultHoles = faulted+started, faultHoles+holes
		loneFaulted += lone(fmt.Sprintf("faults, call %d", iter), ctx)
	}
	faultinject.Disable()

	// wallOf is the last of three clean runs' wall time.
	wallOf := func(run func()) (wall time.Duration) {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			run()
			wall = time.Since(t0)
		}
		return wall
	}
	wall := wallOf(func() { GEMMBatch(ctx, pool, opts, wave()) })
	loneWall := wallOf(func() { GEMM(pool, opts, false, false, 1, LA, LB, 0, lone0.Clone()) })
	cancelled, cancelHoles, loneCancelled := 0, 0, 0
	for i := 0; i < 24 || cancelHoles == 0 && i < 1000; i++ {
		items := wave()
		cctx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(wall*time.Duration(i%24)/20, cancel)
		_, errs, err := GEMMBatch(cctx, pool, opts, items)
		timer.Stop()
		cancel()
		started, holes := check(fmt.Sprintf("cancelled at %d/20 of %v", i%24, wall), items, errs, err)
		cancelled, cancelHoles = cancelled+started, cancelHoles+holes
		cctx, cancel = context.WithCancel(ctx)
		timer = time.AfterFunc(loneWall*time.Duration(i%24)/20, cancel)
		loneCancelled += lone(fmt.Sprintf("cancelled at %d/20 of %v", i%24, loneWall), cctx)
		timer.Stop()
		cancel()
	}
	t.Logf("%d members failed under faults and %d under cancellation after they started; the %d-block member failed %d times with blocks complete; %d and %d members claimed and never started below one that started; the lone %d³ failed after it started %d times under faults and %d under cancellation",
		faulted, cancelled, multi, partial, faultHoles, cancelHoles, ln, loneFaulted, loneCancelled)
	if faulted == 0 || loneFaulted == 0 {
		t.Errorf("%d members and %d lone calls failed under faults after they started, want both (test premise)", faulted, loneFaulted)
	}
	if faultHoles == 0 || cancelHoles == 0 {
		t.Errorf("%d faulted and %d cancelled waves left a member claimed and never started below one that started, want both (test premise)",
			faultHoles, cancelHoles)
	}
}

// TestWaveReturnsPooledBuffers: a wave that fails mid-run returns every
// buffer it took — after twenty of them, warm calls of the same shape
// miss the recycling pool no more than any warm calls may (poolSlack).
func TestWaveReturnsPooledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; steady state unreachable")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(163))
	A, B := matrix.Random(waveM, waveK, rng), matrix.Random(waveK, waveN, rng)
	C := matrix.New(waveM, waveN)
	opts := Options{Curve: layout.ZMorton, Alg: Strassen, Tile: testTile}
	for i := 0; i < 3; i++ {
		if st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			t.Fatal(err)
		} else if st.PackDeferred != 5 {
			t.Fatalf("PackDeferred = %d, want A's 5 segments packed inside the wave (test premise)", st.PackDeferred)
		}
	}
	faultinject.Configure(faultinject.Config{PanicProb: 0.05, Seed: 3})
	failed := 0
	for i := 0; i < 20; i++ {
		if _, err := GEMM(pool, opts, false, false, 1, A, B, 0, C); err != nil {
			failed++
		}
	}
	faultinject.Disable()
	if failed == 0 {
		t.Fatal("no run failed under injected panics (test premise)")
	}
	// Five buffers a call — B's segment, and a C tile and a buffer for
	// the A segment in hand per runner — of one size class; a second
	// runner may take its first two only now.
	slack := poolSlack(1) + 2
	var hits, misses int
	for i := 0; i < 4*(slack+1); i++ {
		st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses = hits+st.PoolHits, misses+st.PoolMisses
	}
	if misses > slack {
		t.Errorf("%d pool misses after %d failed waves (%d hits), want at most %d: a failed wave kept its buffers",
			misses, failed, hits, slack)
	}
}

// TestStressWaveFaultInjection: under injected panics, allocation
// failures and delays a block wave never lets a panic escape; a failed
// call's error unwraps to the injected fault, and either C is untouched
// (the call failed before its member began) or the error names its
// progress and every C block is bitwise β-scaled or complete — at
// β = 0.5 and, every other pair of runs, at β = 0 on a sentinel C, whose
// blocks complete out of order on the runners and which no pass clears
// ahead of them. One column of C blocks: A's segments
// are brought by their blocks inside the wave — read in place by
// Standard, packed by the fast algorithms and, on every other run, from
// an A stored transposed, for the same bits — and the run goes on until
// a panic has fired in such a pack. Then a GEMMBatch wave of 64³ members
// (β = 0, multiplied in place), whose runners claim a member before they
// run it — their slot's first, or one ahead of the member in hand — runs
// until a fault has left a member claimed and never started below one
// that started: such a member is reported not started with its C
// untouched, a member that failed after it started holds bitwise +0, and
// a completed one its first clean run's bits.
func TestStressWaveFaultInjection(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(164))
	m, k, n := 600, 24, 40 // 10×1 C blocks... a wave on 4 workers
	A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
	At := A.Transpose()
	C, sentinel := matrix.Random(m, n, rng), matrix.New(m, n)
	sentinel.Fill(7.25)
	scaled := C.Clone()
	scaled.Scale(0.5)
	algs := []Alg{Standard, Strassen, Winograd}
	curves := []layout.Curve{layout.ZMorton, layout.ColMajor, layout.Hilbert}
	want := make(map[int]*matrix.Dense)
	failures, panics, inWavePack, runs := 0, 0, 0, 0
	for i := 0; i < 40 || (inWavePack == 0 && i < 4000); i++ {
		runs++
		opts := Options{Curve: curves[i%len(curves)], Alg: algs[i%len(algs)], Tile: testTile}
		beta, in, out := 0.5, C, scaled
		if i/2%2 == 1 {
			beta, in, out = 0, sentinel, matrix.New(m, n)
		}
		got := in.Clone()
		ta, opA := i%2 == 1, A
		if ta {
			opA = At
		}
		st, err := GEMM(pool, opts, ta, false, 1, opA, B, beta, got)
		key := i%(len(curves)*len(algs))*2 + i/2%2
		if err == nil {
			if st.PackDeferred != 10 {
				t.Fatalf("iter %d: PackDeferred = %d, want A's 10 segments brought by their blocks (test premise)", i, st.PackDeferred)
			}
			// The first clean run of a configuration is its reference;
			// RefGEMM bounds it, later runs must reproduce it bit for bit.
			if want[key] == nil {
				ref := in.Clone()
				matrix.RefGEMM(false, false, 1, A, B, beta, ref)
				if !matrix.Equal(got, ref, tol(m, k, n)) {
					t.Fatalf("iter %d: successful run under faults is wrong (max diff %g)", i, matrix.MaxAbsDiff(got, ref))
				}
				want[key] = got
			} else if !matrix.Equal(got, want[key], 0) {
				t.Fatalf("iter %d: bits differ between two clean runs", i)
			}
			continue
		}
		failures++
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("iter %d: error %v does not unwrap to *faultinject.Fault", i, err)
		}
		if fault.Kind == "panic" {
			panics++
		}
		if !strings.Contains(err.Error(), "blocks") {
			// Only a failure before the wave — the arena reservation is
			// a fault point — carries no progress: C is untouched then.
			if !sameBits(got, in) {
				t.Fatalf("iter %d: error %q does not name its progress, yet C was touched", i, err)
			}
			continue
		}
		// B's one segment is packed before the wave; the accessor on the
		// panic's stack marks a deferred A segment's pack.
		if fault.Site == "core.pack" && strings.Contains(err.Error(), "(*Prepacked).mat") {
			inWavePack++
		}
		if w := want[key]; w != nil {
			blocksScaledOrComplete(t, err.Error(), opts.Tile, k, got, out, w)
		}
	}
	if panics > 0 && inWavePack == 0 {
		t.Errorf("no panic fired inside an in-wave pack in %d runs", runs)
	}
	t.Logf("wave fault stress: %d/%d runs failed (injected), %d inside an in-wave pack", failures, runs, inWavePack)

	const members, mn = 24, 64
	As, Bs, C0s, refs := make([]*matrix.Dense, members), make([]*matrix.Dense, members), make([]*matrix.Dense, members), make([]*matrix.Dense, members)
	for i := range As {
		As[i], Bs[i], C0s[i] = matrix.Random(mn, mn, rng), matrix.Random(mn, mn, rng), matrix.Random(mn, mn, rng)
	}
	holes, waves := 0, 0
	for ; waves < 40 || holes == 0 && waves < 4000; waves++ {
		items := make([]BatchItem, members)
		for i := range items {
			items[i] = BatchItem{Alpha: 1, A: As[i], B: Bs[i], C: C0s[i].Clone()}
		}
		_, errs, err := GEMMBatch(context.Background(), pool, Options{Curve: layout.ZMorton, Alg: Standard}, items)
		var unstarted []int
		last := -1
		for i, it := range items {
			switch {
			case err != nil || errs[i] != nil && strings.Contains(errs[i].Error(), "not started"):
				if !sameBits(it.C, C0s[i]) {
					t.Fatalf("wave %d: member %d never started (%v), yet its C was touched", waves, i, errors.Join(err, errs[i]))
				}
				unstarted = append(unstarted, i)
				continue
			case errs[i] == nil && refs[i] == nil:
				ref := C0s[i].Clone()
				matrix.RefGEMM(false, false, 1, As[i], Bs[i], 0, ref)
				if !matrix.Equal(it.C, ref, tol(mn, mn, mn)) {
					t.Fatalf("wave %d: member %d is wrong (max diff %g)", waves, i, matrix.MaxAbsDiff(it.C, ref))
				}
				refs[i] = it.C
			case errs[i] == nil:
				if !sameBits(it.C, refs[i]) {
					t.Fatalf("wave %d: member %d's bits differ from its first clean run's", waves, i)
				}
			case !sameBits(it.C, matrix.New(mn, mn)):
				t.Fatalf("wave %d: member %d failed (%v), and its C is not bitwise +0", waves, i, errs[i])
			}
			last = i
		}
		for _, i := range unstarted {
			if i < last {
				holes++
			}
		}
	}
	if holes == 0 {
		t.Errorf("no member claimed and never started below one that started in %d faulted waves", waves)
	}
	t.Logf("member wave fault stress: %d members claimed and never started below one that started, in %d waves", holes, waves)
}

// TestWaveStatsAndTrace: Stats of a split call describe the shared plan
// and the wave's single scheduler run, and the trace shows pack → wave
// with one wave-item span per C block instead of per-block phases. The
// same product as a one-item batch traced for a request, its A stored
// transposed, draws the same spans and a pack span per A segment, which
// its blocks pack; each block's span carries the item's trace id, which
// links it to the request's lane.
func TestWaveStatsAndTrace(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(165))
	A, B := matrix.Random(waveM, waveK, rng), matrix.Random(waveK, waveN, rng)
	C := matrix.New(waveM, waveN)
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile}

	traced := func(run func() error) obs.TraceSummary {
		t.Helper()
		tr := obs.NewTracer(pool.Workers(), 0)
		if err := obs.Install(tr); err != nil {
			t.Fatal(err)
		}
		err := run()
		obs.Uninstall(tr)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	var st *Stats
	sum := traced(func() (err error) {
		st, err = GEMM(pool, opts, false, false, 1, A, B, 0, C)
		return err
	})
	// 5 row segments of 60 on a depth-2 grid of 15×5×5 tiles.
	if st.Blocks != 5 || st.Depth != 2 || st.TileM != 15 || st.TileK != 5 || st.TileN != 5 || st.PaddedM != 60 {
		t.Errorf("plan geometry: blocks=%d depth=%d tiles %dx%dx%d padded m %d", st.Blocks, st.Depth, st.TileM, st.TileK, st.TileN, st.PaddedM)
	}
	block := 2.0 * 60 * 20 * 20
	if st.Work != 5*block {
		t.Errorf("Work = %g, want %g", st.Work, 5*block)
	}
	// One run of two runners: the span is the longer runner's chain.
	if st.Span < 3*block || st.Span > st.Work {
		t.Errorf("Span = %g, want within [%g, %g]", st.Span, 3*block, st.Work)
	}
	if want := int64(8 * (20*20 + 5*60*20)); st.ConvertBytes != want {
		t.Errorf("ConvertBytes = %d, want %d (B's segment packed once, five C tiles)", st.ConvertBytes, want)
	}
	// A's five segments have one consumer each: read in place by the
	// blocks, and still billed a segment per runner — B's segment and a
	// tile per runner are all the buffers the call takes.
	if st.PackReused != 0 || st.PackDeferred != 5 || st.PoolHits+st.PoolMisses < 2 || st.PoolHits+st.PoolMisses > 3 {
		t.Errorf("PackReused=%d PackDeferred=%d, %d buffers acquired, want 0, 5 and B's segment + a tile per runner",
			st.PackReused, st.PackDeferred, st.PoolHits+st.PoolMisses)
	}
	if want := int64(8 * (20*20 + 2*(60*20+60*20) + 2*(15*5+5*5))); st.EstimatedBytes != want {
		t.Errorf("EstimatedBytes = %d, want %d: A's plan is not held", st.EstimatedBytes, want)
	}
	if st.Total() <= 0 || st.ConvertIn <= 0 || st.Compute <= 0 || st.ConvertOut <= 0 {
		t.Errorf("phase timers: in=%v compute=%v out=%v", st.ConvertIn, st.Compute, st.ConvertOut)
	}
	// One span per block; a packed segment is a span — B's one up front
	// (too small to chunk), and none of A's.
	spans := map[string]int{"wave-item": 5, "convert-in": 1, "compute": 1, "convert-out": 0, "pack": 1}
	for name, want := range spans {
		if sum.ByName[name] != want {
			t.Errorf("trace has %d %q events, want %d (%v)", sum.ByName[name], name, want, sum.ByName)
		}
	}

	const id = 77
	sum = traced(func() error {
		tr := obs.Cur()
		t0 := time.Now()
		_, errs, err := GEMMBatch(context.Background(), pool, opts, []BatchItem{{TransA: true, Alpha: 1, A: A.Transpose(), B: B, C: C, TraceID: id}})
		tr.LaneSpan(tr.NewLane(), obs.KindRequest, t0, time.Since(t0), id)
		if err != nil {
			return err
		}
		return errs[0]
	})
	spans["request"], spans["pack"] = 1, 1+5
	for name, want := range spans {
		if sum.ByName[name] != want {
			t.Errorf("one-item batch: trace has %d %q events, want %d (%v)", sum.ByName[name], name, want, sum.ByName)
		}
	}
	// One flow from the request to each of the five blocks: every block
	// span carries the item's id.
	if sum.FlowLinks != 1 || sum.Flows != 1+5 {
		t.Errorf("one-item batch: %d flow links, %d flow events; want 1 and 1+5", sum.FlowLinks, sum.Flows)
	}
}

// TestPackedEntryPointsTrace: GEMMPrepacked and MulPrepacked run GEMMCtx's
// member body (wave.body) and draw on the call's lane what it draws:
// the wave's compute span, a wave-item span per block when runners share
// the blocks and the block's own phases when one runner walks them —
// and, since they pack nothing, no convert-in span of the run's own and
// no pack. A block's own convert-in is its tile's zero-fill, which only a
// fast level needs: the standard recursion's first touch stores the tile.
func TestPackedEntryPointsTrace(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(166))
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile}
	traced := func(what string, run func() (*Stats, error)) map[string]int {
		t.Helper()
		tr := obs.NewTracer(pool.Workers(), 0)
		if err := obs.Install(tr); err != nil {
			t.Fatal(err)
		}
		_, err := run()
		obs.Uninstall(tr)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return sum.ByName
	}
	plans := func(m, k, n int) (*Prepacked, *Prepacked) {
		pa, err := Prepack(ctx, pool, opts, matrix.Random(m, k, rng), false)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := PrepackConforming(ctx, pool, opts, matrix.Random(k, n, rng), false, pa)
		if err != nil {
			t.Fatal(err)
		}
		return pa, pb
	}
	wa, wb := plans(waveM, waveK, waveN) // five C blocks, shared by two runners
	defer wa.Release()
	defer wb.Release()
	sa, sb := plans(32, 32, 32) // one block, walked by one runner
	defer sa.Release()
	defer sb.Release()
	ta, err := Pack(ctx, pool, opts, matrix.Random(32, 32, rng))
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Release()
	tb, err := Pack(ctx, pool, opts, matrix.Random(32, 32, rng))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Release()
	tc, err := NewProduct(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Release()
	// 16³ in 8³ tiles: a 2 × 2-tile grid, one Winograd level above the standard recursion.
	wopts := Options{Curve: layout.ZMorton, Alg: Winograd, FastCutoff: 1, ForceTile: 8}
	fa, err := Prepack(ctx, pool, wopts, matrix.Random(16, 16, rng), false)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Release()
	fb, err := PrepackConforming(ctx, pool, wopts, matrix.Random(16, 16, rng), false, fa)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	for _, tc := range []struct {
		what string
		run  func() (*Stats, error)
		want map[string]int
	}{
		{"GEMMPrepacked, five blocks on two runners", func() (*Stats, error) {
			return GEMMPrepacked(ctx, pool, opts, 1, wa, wb, 0, matrix.New(waveM, waveN))
		}, map[string]int{"wave-item": 5, "convert-in": 0, "compute": 1, "convert-out": 0, "pack": 0}},
		// The standard recursion's first product into each tile of the
		// block's C stores it: the tile is not zero-filled, and the block
		// converts nothing in.
		{"GEMMPrepacked, one block, beta 0.5", func() (*Stats, error) {
			return GEMMPrepacked(ctx, pool, opts, 1, sa, sb, 0.5, matrix.New(32, 32))
		}, map[string]int{"wave-item": 0, "convert-in": 0, "compute": 1, "convert-out": 1, "pack": 0}},
		// A fast level accumulates into its tile: the block's own convert-in
		// is that tile's zero-fill.
		{"GEMMPrepacked, one block, Winograd, beta 0.5", func() (*Stats, error) {
			st, err := GEMMPrepacked(ctx, pool, wopts, 1, fa, fb, 0.5, matrix.New(16, 16))
			if err == nil && (st.Alg != Winograd || st.FastLevels != 1 || st.Depth != 1) {
				err = fmt.Errorf("ran %v with %d fast levels at depth %d, want winograd, 1 and 1", st.Alg, st.FastLevels, st.Depth)
			}
			return st, err
		}, map[string]int{"wave-item": 0, "convert-in": 1, "compute": 1, "convert-out": 1, "pack": 0}},
		// A β = 0, α = 1 product of one small block goes into C in place.
		{"GEMMPrepacked, one block, beta 0", func() (*Stats, error) {
			return GEMMPrepacked(ctx, pool, opts, 1, sa, sb, 0, matrix.New(32, 32))
		}, map[string]int{"wave-item": 0, "convert-in": 0, "compute": 1, "convert-out": 0, "pack": 0}},
		// A tiled C takes the product in place: no zero-fill, no epilogue.
		{"MulPrepacked", func() (*Stats, error) {
			return MulPrepacked(ctx, pool, opts, tc, ta, tb)
		}, map[string]int{"wave-item": 0, "convert-in": 0, "compute": 1, "convert-out": 0, "pack": 0}},
	} {
		got := traced(tc.what, tc.run)
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("%s: trace has %d %q events, want %d (%v)", tc.what, got[name], name, want, got)
			}
		}
	}
}

// TestTraceOneTracerPerCall: every span of a call goes to the tracer
// installed when the call entered. Swapping tracers while a 1-worker
// 1024³ call multiplies leaves the second tracer without a leaf span of
// that call.
func TestTraceOneTracerPerCall(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(167))
	n := 1024
	A, B, C := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	leaves := func(tr *obs.Tracer) int {
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return sum.ByName["leaf"]
	}
	first, second := obs.NewTracer(1, 0), obs.NewTracer(1, 0)
	if err := obs.Install(first); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := GEMM(pool, Options{}, false, false, 1, A, B, 0, C)
		done <- err
	}()
	// The recursion's first fork: the call is past its packs and has
	// most of its 32³ leaves ahead of it.
	for st := pool.Stats(); st.Spawns+st.Inline == 0; st = pool.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	obs.Uninstall(first)
	if err := obs.Install(second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("the call ended before the tracers were swapped")
	default:
	}
	err := <-done
	obs.Uninstall(second)
	if err != nil {
		t.Fatal(err)
	}
	if got := leaves(second); got != 0 {
		t.Errorf("%d leaf spans of the call landed in the tracer installed after it entered", got)
	}
	if leaves(first) == 0 {
		t.Error("no leaf span in the call's own tracer")
	}
}

// TestMergedBaseLeafSpans: a serial base over canonical tiles, on a
// chained kernel, makes one leaf call, and so one leaf span carrying its
// flops, per square of tiles up to mergeSide elements a side. A traced
// in-place 64³ call, one 2×2-tile quadrant of 32³ tiles, records one
// span of 2·64³ flops, and so does 100³ on 25-wide tiles off the 8×4
// grid; a serial ColMajor 512³, one base over 16×16 tiles, eight of
// 2·256³; the same on Z-Morton, packed to tiles (past inPlaceSide),
// keeps its 16³ tile calls (on a host whose default kernel is not
// chained, one a tile throughout).
func TestMergedBaseLeafSpans(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(442))
	for _, tc := range []struct {
		n, spans, tiles int
		flops           int64
		opts            Options
	}{
		{64, 1, 8, 2 * 64 * 64 * 64, Options{Curve: layout.ZMorton, Alg: Standard}},
		{512, 8, 4096, 2 * 256 * 256 * 256, Options{Curve: layout.ColMajor, Alg: Standard, SerialCutoff: 16}},
		{100, 1, 64, 2 * 100 * 100 * 100, Options{Curve: layout.ZMorton, Alg: Standard}},
		{512, 4096, 4096, 2 * 32 * 32 * 32, Options{Curve: layout.ZMorton, Alg: Standard, SerialCutoff: 16}},
	} {
		A, B, C := matrix.Random(tc.n, tc.n, rng), matrix.Random(tc.n, tc.n, rng), matrix.New(tc.n, tc.n)
		tr := obs.NewTracer(pool.Workers(), 1<<13)
		if err := obs.Install(tr); err != nil {
			t.Fatal(err)
		}
		st, err := GEMM(pool, tc.opts, false, false, 1, A, B, 0, C)
		obs.Uninstall(tr)
		if err != nil {
			t.Fatal(err)
		}
		if in := tc.opts.Curve != layout.ColMajor && tc.n < 512; st.Blocks != 1 || in != (st.ConvertBytes == 0) {
			t.Fatalf("%d³: %d blocks, %d bytes converted; want one block, in place %v (test premise)", tc.n, st.Blocks, st.ConvertBytes, in)
		}
		if impl, _ := leaf.GetImpl(st.Kernel); !impl.Chained {
			tc.flops = tc.flops * int64(tc.spans) / int64(tc.tiles)
			tc.spans = tc.tiles
		}
		spans := leafSpans(t, tr)
		for _, flops := range spans {
			if flops != tc.flops {
				t.Errorf("%d³ on %s: a leaf span of %d flops, want %d", tc.n, st.Kernel, flops, tc.flops)
			}
		}
		if len(spans) != tc.spans {
			t.Errorf("%d³ on %s: %d leaf spans, want %d", tc.n, st.Kernel, len(spans), tc.spans)
		}
	}
}

// leafSpans is the flops of every leaf span tr recorded.
func leafSpans(t *testing.T, tr *obs.Tracer) (flops []int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ V json.RawMessage }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name != "leaf" {
			continue
		}
		var f int64
		if err := json.Unmarshal(e.Args.V, &f); err != nil {
			t.Fatal(err)
		}
		flops = append(flops, f)
	}
	return flops
}

// TestPanelLeafSpans counts the leaf calls of a partner narrower than A's
// tiles (exec.base's panel form): stream-prepacked's 1024²·1024×48,
// through Prepack + PrepackConforming + GEMMPrepacked, runs 8 C blocks of
// 8 k products on 4×4 grids of 32×12×32 tiles. Each product makes one
// call per row tile and pair of k tiles, over the block's whole width —
// 512 calls of 2·32·48·64 flops where the tile loop made 4,096 — on
// Z-Morton, whose lowest level lays the pair back to back, and through
// GEMMCtx, whose A is read in place. Hilbert lays only some k pairs of a
// tile row back to back, checked pair by pair: between 512 and 1,024.
func TestPanelLeafSpans(t *testing.T) {
	ctx := context.Background()
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(53))
	A, B, C := matrix.Random(1024, 1024, rng), matrix.Random(1024, 48, rng), matrix.New(1024, 48)
	for _, tc := range []struct {
		curve   layout.Curve
		planned bool
		lo, hi  int // leaf spans
	}{{layout.ZMorton, true, 512, 512}, {layout.ZMorton, false, 512, 512}, {layout.Hilbert, true, 513, 1023}} {
		opts := Options{Curve: tc.curve, Alg: Standard}
		tr := obs.NewTracer(pool.Workers(), 1<<13)
		if err := obs.Install(tr); err != nil {
			t.Fatal(err)
		}
		var st *Stats
		var err error
		if tc.planned {
			var pa, pb *Prepacked
			if pa, err = Prepack(ctx, pool, opts, A, false); err == nil {
				if pb, err = PrepackConforming(ctx, pool, opts, B, false, pa); err == nil {
					st, err = GEMMPrepacked(ctx, pool, opts, 1, pa, pb, 0, C)
					pb.Release()
				}
				pa.Release()
			}
		} else {
			st, err = GEMMCtx(ctx, pool, opts, false, false, 1, A, B, 0, C)
		}
		obs.Uninstall(tr)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v planned=%v", tc.curve, tc.planned)
		if st.Blocks != 64 || st.TileM != 32 || st.TileN != 12 || st.TileK != 32 || st.Depth != 2 {
			t.Fatalf("%s: %d blocks of %dx%dx%d tiles at depth %d; want 64 of 32x12x32 at depth 2 (test premise)",
				name, st.Blocks, st.TileM, st.TileN, st.TileK, st.Depth)
		}
		if impl, _ := leaf.GetImpl(st.Kernel); !impl.Chained {
			t.Skipf("%s does not chain", st.Kernel)
		}
		spans, flops := leafSpans(t, tr), int64(0)
		for _, f := range spans {
			flops += f
		}
		if n := len(spans); n < tc.lo || n > tc.hi || flops != 2*1024*1024*48 {
			t.Errorf("%s: %d leaf spans of %d flops in all, want %d to %d of %d", name, n, flops, tc.lo, tc.hi, 2*1024*1024*48)
		}
	}
}

// TestPullWaveEverySlotRuns: runner slot r runs index r first, so every
// slot sizes its workspace whatever the scheduling. Here the pool's other
// worker is held by another run for the whole wave: the second runner
// starts only when the first has pulled every other index and joins, and
// it still runs index 1.
func TestPullWaveEverySlotRuns(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	hold, held := make(chan struct{}), make(chan struct{})
	go pool.Run(func(*sched.Ctx) { close(held); <-hold })
	<-held
	defer close(hold)
	const n, count = 2, 8
	var mu sync.Mutex
	var first []int
	ran := map[*waveWS]bool{}
	if _, _, err := pool.Run(func(c *sched.Ctx) {
		pullWave(context.Background(), c, &exec{}, n, count, &Stats{}, func(c *sched.Ctx, ws *waveWS, i int) error {
			mu.Lock()
			defer mu.Unlock()
			if !ran[ws] {
				ran[ws], first = true, append(first, i)
			}
			return nil
		}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != "[0 1]" {
		t.Errorf("the runner slots ran %v first, want [0 1]: a slot that starts late must still run its own index", first)
	}
}

// TestPullWaveLookahead: with a lookahead, a runner claims its next index
// before it runs the one in hand and hands it to ahead, while more are
// unclaimed than there are runners; every index runs exactly once and is
// prefetched at most once, before it runs. One runner prefetches
// 1 … count-2 in order, each just before the one ahead of it runs: the
// last claim leaves one index and one runner. A wave of as many indices
// as runners claims nothing ahead.
func TestPullWaveLookahead(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, n := range []int{1, 2} {
		for _, count := range []int{n, 8} {
			var mu sync.Mutex
			var log []string
			note := func(format string, i int) {
				mu.Lock()
				log = append(log, fmt.Sprintf(format, i))
				mu.Unlock()
			}
			if _, _, err := pool.Run(func(c *sched.Ctx) {
				pullWave(context.Background(), c, &exec{}, n, count, &Stats{}, func(c *sched.Ctx, ws *waveWS, i int) error {
					note("run %d", i)
					return nil
				}, func(i int) { note("ahead %d", i) })
			}); err != nil {
				t.Fatal(err)
			}
			got := strings.Join(log, ", ")
			seen := map[string]int{}
			for _, e := range log {
				if seen[e]++; strings.HasPrefix(e, "ahead") && seen["run"+strings.TrimPrefix(e, "ahead")] > 0 {
					t.Errorf("%d runners, %d indices: %s; %s after it ran", n, count, got, e)
				}
			}
			for i := 0; i < count; i++ {
				if seen[fmt.Sprint("run ", i)] != 1 || seen[fmt.Sprint("ahead ", i)] > 1 {
					t.Errorf("%d runners, %d indices: %s; want index %d run once and prefetched at most once", n, count, got, i)
				}
			}
			switch {
			case count == n && strings.Contains(got, "ahead"):
				t.Errorf("%d runners, %d indices: %s; want nothing claimed ahead", n, count, got)
			case n == 1 && count > n:
				want := "ahead 1, run 0, ahead 2, run 1, ahead 3, run 2, ahead 4, run 3, ahead 5, run 4, ahead 6, run 5, run 6, run 7"
				if got != want {
					t.Errorf("one runner: %s, want %s", got, want)
				}
			}
		}
	}
}

// TestWaveOfWorkersOneMemberPerRunner: a wave of exactly as many members
// as workers, each in the prefetch window (A+B ≤ 2·128²), runs one member
// per runner — the lookahead claims ahead only while more members are
// unclaimed than there are runners — so its wave-item spans lie one on
// each worker's track. Every fault point sleeps through the traced wave,
// so a runner holds its member long enough for the second runner to be
// stolen on any host.
func TestWaveOfWorkersOneMemberPerRunner(t *testing.T) {
	const workers, m, k, n = 2, 128, 128, 128
	pool := sched.NewPool(workers)
	defer pool.Close()
	rng := rand.New(rand.NewSource(411))
	items := make([]BatchItem, workers)
	for i := range items {
		items[i] = BatchItem{Alpha: 1, A: matrix.Random(m, k, rng), B: matrix.Random(k, n, rng), C: matrix.New(m, n)}
	}
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	if bs, _, err := GEMMBatch(context.Background(), pool, opts, items); err != nil || bs.Blocks != workers {
		t.Fatalf("%v, %+v: want one block a member (test premise)", err, bs)
	}
	tr := obs.NewTracer(pool.Workers(), 0)
	if err := obs.Install(tr); err != nil {
		t.Fatal(err)
	}
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 200 * time.Microsecond})
	_, errs, err := GEMMBatch(context.Background(), pool, opts, items)
	faultinject.Disable()
	obs.Uninstall(tr)
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Tid      int64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[int64]int{}
	for _, e := range doc.TraceEvents {
		if e.Name == "wave-item" && e.Ph == "X" {
			tracks[e.Tid]++
		}
	}
	if len(tracks) != workers {
		t.Errorf("wave-item spans by worker track: %v, want one on each of %d tracks", tracks, workers)
	}
}

// TestWavePrefetchedMembersMatchSingleCalls: a wave whose runners
// prefetch the member they claim one ahead — members in the window (A+B
// in (2·32², 2·128²]), with A or B stored transposed, views at a leading
// dimension past their rows, views whose last column ends at the last
// element of their backing array, and members outside the window on
// either side — gives every member its single call's bits and the
// wave's Stats their sum, at one and two workers.
func TestWavePrefetchedMembersMatchSingleCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(417))
	shapes := [][3]int{{64, 64, 64}, {96, 40, 80}, {128, 128, 128}, {24, 24, 24}, {200, 160, 150}, {48, 100, 33}}
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	var items []BatchItem
	var C0 []*matrix.Dense
	for i := 0; i < 24; i++ {
		s := shapes[i%len(shapes)]
		m, k, n := s[0], s[1], s[2]
		ta, tb := i%4 == 1 || i%4 == 3, i%4 >= 2
		A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
		if i%3 == 0 { // a view at ld > rows, ending where its backing array ends
			big := matrix.Random(A.Rows+5, A.Cols+2, rng)
			A = big.View(5, 2, A.Rows, A.Cols)
		}
		C := matrix.Random(m, n, rng)
		C0 = append(C0, C)
		items = append(items, BatchItem{TransA: ta, TransB: tb, Alpha: 1.5, A: A, B: B, Beta: float64(i % 2), C: C.Clone()})
	}
	for _, workers := range []int{1, 2} {
		pool := sched.NewPool(workers)
		var blocks int
		var converted int64
		want := make([]*matrix.Dense, len(items))
		for i, it := range items {
			want[i] = C0[i].Clone()
			st, err := GEMMCtx(context.Background(), pool, opts, it.TransA, it.TransB, it.Alpha, it.A, it.B, it.Beta, want[i])
			if err != nil {
				t.Fatal(err)
			}
			blocks, converted = blocks+st.Blocks, converted+st.ConvertBytes
			items[i].C = C0[i].Clone()
		}
		bs, errs, err := GEMMBatch(context.Background(), pool, opts, items)
		pool.Close()
		if err = errors.Join(append(errs, err)...); err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if !sameBits(it.C, want[i]) {
				t.Errorf("%d workers: member %d (A %v, B %v) differs from its single call by %g",
					workers, i, it.TransA, it.TransB, matrix.MaxAbsDiff(it.C, want[i]))
			}
		}
		if bs.Blocks != blocks || bs.ConvertBytes != converted {
			t.Errorf("%d workers: the wave ran %d blocks converting %d bytes, its single calls %d and %d",
				workers, bs.Blocks, bs.ConvertBytes, blocks, converted)
		}
	}
}
