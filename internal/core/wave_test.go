package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/layout"
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
// every C block of the m×n result holds exactly its β-scaled input or
// exactly the finished product. It returns how many were complete.
func blocksScaledOrComplete(t *testing.T, what string, cfg tile.Config, k int, C, scaled, want *matrix.Dense) int {
	t.Helper()
	ms, _, ns := cfg.SplitDims(C.Rows, k, C.Cols)
	complete := 0
	for _, sm := range ms {
		for _, sn := range ns {
			got := C.View(sm.Off, sn.Off, sm.Len, sn.Len)
			switch {
			case matrix.Equal(got, want.View(sm.Off, sn.Off, sm.Len, sn.Len), 0):
				complete++
			case !matrix.Equal(got, scaled.View(sm.Off, sn.Off, sm.Len, sn.Len), 0):
				t.Fatalf("%s: C block at (%d,%d) is neither β-scaled nor complete", what, sm.Off, sn.Off)
			}
		}
	}
	return complete
}

// TestWaveMemBudgetGroups: the transient plan is charged once per call;
// a budget it exceeds makes the wave walk the plan in groups that fit.
// Grouping the larger operand's panels — A's rows for a tall A, B's
// columns for a wide B — keeps the blocks, the bits and the one pack per
// segment. A budget of a single block multiplication's buffers is the
// least a call can run in: one panel of each operand, and — the lean
// 20×300 · 300×300, whose B is packed by its blocks and has no plan to
// cut — one k segment of A at a time. Only a budget below that rejects
// the call, before C is touched.
func TestWaveMemBudgetGroups(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(161))
	for _, tc := range []struct {
		m, k, n int
		blocks  int
		// budget is the cut taken off the whole-plan estimate, in A and
		// B segments; minimal instead leaves one segment of each.
		lessA, lessB int
		minimal      bool
		walk         string
	}{
		{m: 300, k: 20, n: 120, blocks: 10, lessA: 2, walk: "walking them 3x1x2 at a time"},
		{m: 120, k: 20, n: 300, blocks: 10, lessB: 2, walk: "walking them 2x1x3 at a time"},
		{m: 300, k: 20, n: 120, blocks: 10, minimal: true, walk: "walking them 1x1x1 at a time"},
		{m: 20, k: 300, n: 300, blocks: 25, minimal: true, walk: "walking them 1x1x5 at a time"},
	} {
		for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor} {
			what := fmt.Sprintf("%dx%dx%d %v", tc.m, tc.k, tc.n, cv)
			A, B := matrix.Random(tc.m, tc.k, rng), matrix.Random(tc.k, tc.n, rng)
			C := matrix.Random(tc.m, tc.n, rng)
			opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
			// A cut k chain under β = 0: only the first group may store.
			beta := 0.5
			if tc.minimal {
				beta = 0
			}
			want := C.Clone()
			full, err := GEMM(pool, opts, false, false, 1.5, A, B, beta, want)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Degraded) != 0 || full.Blocks != tc.blocks {
				t.Fatalf("%s: unbudgeted run: blocks=%d notes=%v", what, full.Blocks, full.Degraded)
			}
			ms, ks, ns := opts.Tile.SplitDims(tc.m, tc.k, tc.n)
			segA, segB := 8*int64(full.PaddedM*full.PaddedK), 8*int64(full.PaddedK*full.PaddedN)
			// An operand one row or column of C blocks consumes has no plan.
			// (The shortest dimension is never cut, so a k chain of several
			// segments always comes with such an operand.)
			deferred := 0
			if len(ns) == 1 {
				segA, deferred = 0, len(ms)*len(ks)
			}
			if len(ms) == 1 {
				segB, deferred = 0, len(ks)*len(ns)
			}
			plan := int64(len(ks)) * (int64(len(ms))*segA + int64(len(ns))*segB)
			if full.PackDeferred != deferred {
				t.Fatalf("%s: PackDeferred = %d, want %d", what, full.PackDeferred, deferred)
			}
			// The whole plan, and at least one product tile per worker.
			if lo := plan + 8*int64(2*full.PaddedM*full.PaddedN); full.EstimatedBytes < lo {
				t.Fatalf("%s: EstimatedBytes = %d, want at least the plan's %d", what, full.EstimatedBytes, lo)
			}

			opts.MemBudget = full.EstimatedBytes - int64(tc.lessA)*segA - int64(tc.lessB)*segB
			if tc.minimal {
				opts.MemBudget = full.EstimatedBytes - plan + segA + segB
			}
			got := C.Clone()
			st, err := GEMM(pool, opts, false, false, 1.5, A, B, beta, got)
			if err != nil {
				t.Fatalf("%s: budgeted run: %v", what, err)
			}
			if st.Alg != Standard || st.Serial || st.Blocks != tc.blocks || st.EstimatedBytes > opts.MemBudget {
				t.Errorf("%s: alg=%v serial=%v blocks=%d est=%d budget=%d", what, st.Alg, st.Serial, st.Blocks, st.EstimatedBytes, opts.MemBudget)
			}
			if len(st.Degraded) != 1 || !strings.Contains(st.Degraded[0], tc.walk) {
				t.Errorf("%s: Degraded = %q, want one note %q", what, st.Degraded, tc.walk)
			}
			if tc.minimal {
				// A cut k chain lands in several epilogues: same product,
				// another association.
				if !matrix.Equal(got, want, tol(tc.m, tc.k, tc.n)) {
					t.Errorf("%s: cut k chain is wrong, max diff %g", what, matrix.MaxAbsDiff(got, want))
				}
			} else {
				if !matrix.Equal(got, want, 0) {
					t.Errorf("%s: grouped panels changed the bits, max diff %g", what, matrix.MaxAbsDiff(got, want))
				}
				if st.ConvertBytes != full.ConvertBytes {
					t.Errorf("%s: ConvertBytes = %d grouped, %d whole: a segment was packed twice", what, st.ConvertBytes, full.ConvertBytes)
				}
			}

			opts.MemBudget = (segA + segB) / 2
			untouched := C.Clone()
			if _, err := GEMM(pool, opts, false, false, 1.5, A, B, beta, untouched); !errors.Is(err, ErrMemBudget) {
				t.Fatalf("%s: err = %v, want ErrMemBudget", what, err)
			}
			if !matrix.Equal(untouched, C, 0) {
				t.Errorf("%s: admission rejected the call after touching C", what)
			}
		}
	}
}

// TestWaveMemBudgetLeanTimesBig: a lean A against a big B under the
// default tiling — 48×2048 · 2048×2048, a 32 MiB packed B — runs whole
// inside tenant-sized budgets: one row of C blocks, so B is never held
// as a plan, only a segment per runner.
func TestWaveMemBudgetLeanTimesBig(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(166))
	m, k, n := 48, 2048, 2048
	A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
	want := matrix.New(m, n)
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	full, err := GEMM(pool, opts, false, false, 1, A, B, 0, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{2 << 20, 8 << 20, 32 << 20} {
		opts.MemBudget = budget
		got := matrix.New(m, n)
		st, err := GEMM(pool, opts, false, false, 1, A, B, 0, got)
		if err != nil {
			t.Fatalf("budget %s: %v", fmtBytes(budget), err)
		}
		if st.Alg != Standard || st.EstimatedBytes > budget || len(st.Degraded) != 0 {
			t.Errorf("budget %s: alg=%v est=%d notes=%q", fmtBytes(budget), st.Alg, st.EstimatedBytes, st.Degraded)
		}
		if st.PackDeferred == 0 || st.PackDeferred != full.PackDeferred || st.ConvertBytes != full.ConvertBytes {
			t.Errorf("budget %s: %d segments deferred, %d bytes converted; unbudgeted %d and %d", fmtBytes(budget),
				st.PackDeferred, st.ConvertBytes, full.PackDeferred, full.ConvertBytes)
		}
		if !matrix.Equal(got, want, 0) {
			t.Errorf("budget %s: max diff %g", fmtBytes(budget), matrix.MaxAbsDiff(got, want))
		}
	}
}

// TestWaveDeferredSerialRung: a budget that admits only the serial rung
// takes the wave away but not the bill it was admitted on — A's segments
// are still packed one at a time by the block that multiplies them, now
// from the caller's goroutine, and the bits and the converted bytes are
// the wave's.
func TestWaveDeferredSerialRung(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(167))
	A, B := matrix.Random(waveM, waveK, rng), matrix.Random(waveK, waveN, rng)
	C := matrix.Random(waveM, waveN, rng)
	opts := Options{Curve: layout.Hilbert, Alg: Standard, Tile: testTile}
	want := C.Clone()
	full, err := GEMM(pool, opts, false, false, 1, A, B, 0.5, want)
	if err != nil {
		t.Fatal(err)
	}
	// Room for one runner's tile, A segment and scratch beside B, not two.
	opts.MemBudget = full.EstimatedBytes - 8*60*20
	got := C.Clone()
	st, err := GEMM(pool, opts, false, false, 1, A, B, 0.5, got)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Serial || len(st.Degraded) != 1 || st.EstimatedBytes > opts.MemBudget {
		t.Fatalf("serial=%v est=%d budget=%d notes=%q, want the serial rung", st.Serial, st.EstimatedBytes, opts.MemBudget, st.Degraded)
	}
	if st.PackDeferred != 5 || full.PackDeferred != 5 || st.ConvertBytes != full.ConvertBytes {
		t.Errorf("PackDeferred = %d serial, %d wave; ConvertBytes %d and %d", st.PackDeferred, full.PackDeferred, st.ConvertBytes, full.ConvertBytes)
	}
	if !matrix.Equal(got, want, 0) {
		t.Errorf("serial rung changed the bits, max diff %g", matrix.MaxAbsDiff(got, want))
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
// (the call failed before β) or the error names its progress and every
// C block is β-scaled or complete. One column of C blocks: A's segments
// are packed inside the wave, and the run goes on until a panic has
// fired in such a pack.
func TestStressWaveFaultInjection(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(164))
	m, k, n := 600, 24, 40 // 10×1 C blocks... a wave on 4 workers
	A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
	C := matrix.Random(m, n, rng)
	scaled := C.Clone()
	scaled.Scale(0.5)
	algs := []Alg{Standard, Strassen, Winograd}
	curves := []layout.Curve{layout.ZMorton, layout.ColMajor, layout.Hilbert}
	want := make(map[int]*matrix.Dense)
	failures, panics, inWavePack, runs := 0, 0, 0, 0
	for i := 0; i < 40 || (inWavePack == 0 && i < 4000); i++ {
		runs++
		opts := Options{Curve: curves[i%len(curves)], Alg: algs[i%len(algs)], Tile: testTile}
		got := C.Clone()
		st, err := GEMM(pool, opts, false, false, 1, A, B, 0.5, got)
		key := i % (len(curves) * len(algs))
		if err == nil {
			if st.PackDeferred != 10 {
				t.Fatalf("iter %d: PackDeferred = %d, want A's 10 segments (test premise)", i, st.PackDeferred)
			}
			// The first clean run of a configuration is its reference;
			// RefGEMM bounds it, later runs must reproduce it bit for bit.
			if want[key] == nil {
				ref := C.Clone()
				matrix.RefGEMM(false, false, 1, A, B, 0.5, ref)
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
			if !matrix.Equal(got, C, 0) {
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
			blocksScaledOrComplete(t, err.Error(), opts.Tile, k, got, scaled, w)
		}
	}
	if panics > 0 && inWavePack == 0 {
		t.Errorf("no panic fired inside an in-wave pack in %d runs", runs)
	}
	t.Logf("wave fault stress: %d/%d runs failed (injected), %d inside an in-wave pack", failures, runs, inWavePack)
}

// TestWaveStatsAndTrace: Stats of a split call describe the shared plan
// and the wave's single scheduler run, and the trace shows pack → wave
// with one wave-item span per C block instead of per-block phases.
func TestWaveStatsAndTrace(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(165))
	A, B := matrix.Random(waveM, waveK, rng), matrix.Random(waveK, waveN, rng)
	C := matrix.New(waveM, waveN)
	opts := Options{Curve: layout.ZMorton, Alg: Standard, Tile: testTile, TraceID: 77}

	tr := obs.NewTracer(pool.Workers(), 0)
	if err := obs.Install(tr); err != nil {
		t.Fatal(err)
	}
	st, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
	obs.Uninstall(tr)
	if err != nil {
		t.Fatal(err)
	}
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
	if want := int64(8 * (5*60*20 + 20*20 + 5*60*20)); st.ConvertBytes != want {
		t.Errorf("ConvertBytes = %d, want %d (every segment packed once, five C tiles)", st.ConvertBytes, want)
	}
	// A's five segments have one consumer each: packed by the blocks, into
	// one buffer per runner, and billed that way — B's segment, then a tile
	// and an A segment per runner, then the kernel scratch per worker.
	if st.PackReused != 0 || st.PackDeferred != 5 || st.PoolHits+st.PoolMisses < 3 || st.PoolHits+st.PoolMisses > 5 {
		t.Errorf("PackReused=%d PackDeferred=%d, %d buffers acquired, want 0, 5 and B's segment + a tile and an A buffer per runner",
			st.PackReused, st.PackDeferred, st.PoolHits+st.PoolMisses)
	}
	if want := int64(8 * (20*20 + 2*(60*20+60*20) + 2*(15*5+5*5))); st.EstimatedBytes != want {
		t.Errorf("EstimatedBytes = %d, want %d: A's plan is not held", st.EstimatedBytes, want)
	}
	if st.Total() <= 0 || st.ConvertIn <= 0 || st.Compute <= 0 || st.ConvertOut <= 0 {
		t.Errorf("phase timers: in=%v compute=%v out=%v", st.ConvertIn, st.Compute, st.ConvertOut)
	}

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The call's own wave-item instant (its TraceID) plus one span per
	// block; a packed segment is a span — B's one up front (too small to
	// chunk), A's five in the wave.
	for name, want := range map[string]int{"wave-item": 6, "convert-in": 1, "compute": 1, "convert-out": 0, "pack": 1 + 5} {
		if sum.ByName[name] != want {
			t.Errorf("trace has %d %q events, want %d (%v)", sum.ByName[name], name, want, sum.ByName)
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
