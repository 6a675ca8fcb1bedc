package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// acquireArena reserves the workspace of one block multiplication on
// the given geometry, as a call's admission would size it.
func acquireArena(alg Alg, side, tm, tk, tn, fastCutoff, stacks int) *arena {
	return acquireArenaElems(arenaStackElems(alg, side, tm, tk, tn, fastCutoff), stacks)
}

func fillRand(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Float64() - 0.5
	}
}

// serialExec builds an exec that never spawns, suitable for driving
// e.mul directly on an unbound Ctx.
func serialExec(t *testing.T, kernel string, ar *arena) *exec {
	t.Helper()
	impl, err := leaf.GetImpl(kernel)
	if err != nil {
		t.Fatal(err)
	}
	return &exec{kernel: impl, serialCutoff: noSpawn, fastCutoff: 1, ar: ar, ewMin: ewParMin}
}

func TestArenaStackElemsSanity(t *testing.T) {
	if got := arenaStackElems(Standard, 16, 8, 8, 8, 1); got != 0 {
		t.Fatalf("Standard needs %d temp elems, want 0", got)
	}
	// One Strassen level on a 2×2 grid of t×t tiles: 5+5 operand
	// temporaries and 7 products, each a single tile.
	if got, want := arenaStackElems(Strassen, 2, 4, 4, 4, 1), int64(17*16); got != want {
		t.Fatalf("Strassen(2): %d, want %d", got, want)
	}
	// The per-path need grows with depth and shrinks with fastCutoff.
	deep := arenaStackElems(Winograd, 16, 8, 8, 8, 1)
	shallow := arenaStackElems(Winograd, 16, 8, 8, 8, 4)
	if deep <= shallow || shallow <= 0 {
		t.Fatalf("Winograd: deep=%d shallow=%d", deep, shallow)
	}
	// The low-memory variant is by far the smallest fast-algorithm
	// footprint — the property its ladder rung exists for.
	if lm, st := arenaStackElems(StrassenLowMem, 16, 8, 8, 8, 1), arenaStackElems(Strassen, 16, 8, 8, 8, 1); lm*3 >= st {
		t.Fatalf("lowmem %d not well below strassen %d", lm, st)
	}
	// The admission estimate and the reservation share this function;
	// acquireArena must reserve exactly stacks × per-path.
	per := arenaStackElems(Strassen, 8, 16, 16, 16, 1)
	ar := acquireArena(Strassen, 8, 16, 16, 16, 1, 3)
	if ar == nil {
		t.Fatal("acquireArena declined a modest reservation")
	}
	defer releaseArena(ar)
	if ar.bytes() != 8*per*3 {
		t.Fatalf("arena bytes %d, want %d", ar.bytes(), 8*per*3)
	}
}

// TestArenaZeroSteadyStateAllocs pins the tentpole property: after one
// warm-up call (testing.AllocsPerRun's built-in first call populates
// the permutation caches and the worker-slot kernel scratch), a serial
// Strassen or Winograd multiplication at n=512 performs zero heap
// allocations — every temporary is served by the arena.
func TestArenaZeroSteadyStateAllocs(t *testing.T) {
	const n, ts = 512, 64
	const d = 3
	for _, cv := range []layout.Curve{layout.ZMorton, layout.GrayMorton, layout.Hilbert} {
		for _, alg := range []Alg{Strassen, Winograd} {
			rng := rand.New(rand.NewSource(9))
			ta := NewTiled(cv, d, ts, ts, n, n)
			tb := NewTiled(cv, d, ts, ts, n, n)
			tc := NewTiled(cv, d, ts, ts, n, n)
			fillRand(ta.Data, rng)
			fillRand(tb.Data, rng)
			ar := acquireArena(alg, 1<<d, ts, ts, ts, 1, 1)
			if ar == nil {
				t.Fatalf("%v/%v: no arena", alg, cv)
			}
			e := serialExec(t, "packed8x4", ar)
			c := &sched.Ctx{} // reused: worker-slot scratch persists across runs
			cm, am, bm := tc.Mat(), ta.Mat(), tb.Mat()
			allocs := testing.AllocsPerRun(2, func() {
				e.mul(c, alg, cm, am, bm)
			})
			if fb := ar.fallbackAllocs.Load(); fb != 0 {
				t.Errorf("%v/%v: %d arena fallbacks, want 0", alg, cv, fb)
			}
			releaseArena(ar)
			if allocs != 0 {
				t.Errorf("%v/%v: %.0f allocs/run, want 0", alg, cv, allocs)
			}
		}
	}
}

// TestArenaFallbackHeapAndCorrect starves the arena: with a workspace
// far too small for even one temporary, every newTemp falls back to the
// heap, the fallback counters record it, and the result is unchanged —
// the arena is an optimization, never a correctness boundary.
func TestArenaFallbackHeapAndCorrect(t *testing.T) {
	const n, ts = 64, 8
	const d = 3
	rng := rand.New(rand.NewSource(11))
	ta := NewTiled(layout.ZMorton, d, ts, ts, n, n)
	tb := NewTiled(layout.ZMorton, d, ts, ts, n, n)
	fillRand(ta.Data, rng)
	fillRand(tb.Data, rng)
	for _, alg := range []Alg{Standard8, Strassen, Winograd, StrassenLowMem} {
		want := NewTiled(layout.ZMorton, d, ts, ts, n, n)
		e1 := serialExec(t, "unrolled4", nil)
		e1.mul(&sched.Ctx{}, alg, want.Mat(), ta.Mat(), tb.Mat())

		got := NewTiled(layout.ZMorton, d, ts, ts, n, n)
		tiny := &arena{buf: make([]float64, 16), stacks: []arenaStack{{top: 0, limit: 16}}}
		e2 := serialExec(t, "unrolled4", tiny)
		e2.mul(&sched.Ctx{}, alg, got.Mat(), ta.Mat(), tb.Mat())

		if tiny.fallbackAllocs.Load() == 0 || tiny.fallbackElems.Load() == 0 {
			t.Fatalf("%v: starved arena recorded no fallbacks", alg)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%v: heap-fallback result diverges at %d: %g vs %g",
					alg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestRangedEWMatchesSpec pins the devirtualized ranged element-wise
// cores — including the Gray-Morton two-segment rotation split and the
// Hilbert permutation loop — against the closure specification
// (tileIndexMap), across awkward chunk boundaries that straddle the
// rotation wrap point.
func TestRangedEWMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cv := range []layout.Curve{layout.ZMorton, layout.GrayMorton, layout.Hilbert} {
		for _, tiles := range []int{1, 2, 8} {
			no := cv.Orientations()
			for from := 0; from < no; from++ {
				for to := 0; to < no; to++ {
					mk := func(o int) Mat {
						m := Mat{tiles: tiles, tr: 4, tc: 4, curve: cv, orient: layout.Orient(o)}
						m.data = make([]float64, m.elems())
						fillRand(m.data, rng)
						return m
					}
					dst, a, b := mk(from), mk(to), mk((from+to)%no)
					nt := tiles * tiles
					tsz := dst.tileElems()

					// Reference: the closure spec, tile by tile.
					want2 := append([]float64(nil), dst.data...)
					fa := tileIndexMap(dst, a)
					at := func(f func(int) int, s int) int {
						if f == nil {
							return s
						}
						return f(s)
					}
					for s := 0; s < nt; s++ {
						sa := at(fa, s)
						vAcc(want2[s*tsz:(s+1)*tsz], a.data[sa*tsz:(sa+1)*tsz])
					}
					// Candidate: ranged core over uneven chunks.
					got := Mat{data: append([]float64(nil), dst.data...),
						tiles: tiles, tr: 4, tc: 4, curve: cv, orient: layout.Orient(from)}
					ma := resolveTileMap(dst, a)
					for lo := 0; lo < nt; {
						hi := lo + 1 + rng.Intn(3)
						if hi > nt {
							hi = nt
						}
						ew2Tiles(got, a, ma, lo, hi, vAcc)
						lo = hi
					}
					for i := range want2 {
						if got.data[i] != want2[i] {
							t.Fatalf("%v tiles=%d %d→%d: ew2Tiles diverges at %d", cv, tiles, from, to, i)
						}
					}

					// Same for the three-operand core.
					want3 := append([]float64(nil), dst.data...)
					fb := tileIndexMap(dst, b)
					for s := 0; s < nt; s++ {
						sa, sb := at(fa, s), at(fb, s)
						vAdd(want3[s*tsz:(s+1)*tsz], a.data[sa*tsz:(sa+1)*tsz], b.data[sb*tsz:(sb+1)*tsz])
					}
					got3 := Mat{data: append([]float64(nil), dst.data...),
						tiles: tiles, tr: 4, tc: 4, curve: cv, orient: layout.Orient(from)}
					mb := resolveTileMap(dst, b)
					for lo := 0; lo < nt; {
						hi := lo + 1 + rng.Intn(3)
						if hi > nt {
							hi = nt
						}
						ew3Tiles(got3, a, b, ma, mb, lo, hi, vAdd)
						lo = hi
					}
					for i := range want3 {
						if got3.data[i] != want3[i] {
							t.Fatalf("%v tiles=%d %d→%d: ew3Tiles diverges at %d", cv, tiles, from, to, i)
						}
					}
				}
			}
		}
	}
}

// TestEWParallelStreamsMatchSerial forces the pool-parallel element-wise
// path (ewMin=1 splits every pass, serialCutoff=1 spawns at every
// level) and checks the result against the plain serial execution, over
// the orientation-resolving curves. Under `go test -race` this also
// exercises the claim that chunked streams and per-worker arena stacks
// never race.
func TestEWParallelStreamsMatchSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	const n, ts = 128, 16
	const d = 3
	rng := rand.New(rand.NewSource(17))
	for _, cv := range []layout.Curve{layout.GrayMorton, layout.Hilbert} {
		for _, alg := range []Alg{Standard8, Strassen, Winograd} {
			ta := NewTiled(cv, d, ts, ts, n, n)
			tb := NewTiled(cv, d, ts, ts, n, n)
			fillRand(ta.Data, rng)
			fillRand(tb.Data, rng)

			want := NewTiled(cv, d, ts, ts, n, n)
			es := serialExec(t, "unrolled4", nil)
			es.mul(&sched.Ctx{}, alg, want.Mat(), ta.Mat(), tb.Mat())

			got := NewTiled(cv, d, ts, ts, n, n)
			ar := acquireArena(alg, 1<<d, ts, ts, ts, 1, pool.Workers())
			impl, err := leaf.GetImpl("unrolled4")
			if err != nil {
				t.Fatal(err)
			}
			ep := &exec{kernel: impl, serialCutoff: 1, fastCutoff: 1, ar: ar, ewMin: 1}
			cm, am, bm := got.Mat(), ta.Mat(), tb.Mat()
			if _, _, err := pool.Run(func(c *sched.Ctx) { ep.mul(c, alg, cm, am, bm) }); err != nil {
				t.Fatalf("%v/%v: %v", alg, cv, err)
			}
			releaseArena(ar)
			da := matrix.FromSlice(want.Data, len(want.Data), 1, len(want.Data))
			db := matrix.FromSlice(got.Data, len(got.Data), 1, len(got.Data))
			if !matrix.Equal(da, db, 1e-9) {
				t.Fatalf("%v/%v: parallel streams diverge (max diff %g)",
					alg, cv, matrix.MaxAbsDiff(da, db))
			}
		}
	}
}

// TestTileCoordsMatchesSInverse pins the memoized Pack/Unpack
// coordinate table against the direct curve walk.
func TestTileCoordsMatchesSInverse(t *testing.T) {
	for _, cv := range []layout.Curve{layout.UMorton, layout.XMorton, layout.ZMorton, layout.GrayMorton, layout.Hilbert} {
		for _, d := range []uint{0, 1, 3, 5} {
			coords := tileCoords(cv, d)
			if coords == nil {
				t.Fatalf("%v d=%d: no table", cv, d)
			}
			side := 1 << d
			if len(coords) != side*side {
				t.Fatalf("%v d=%d: table has %d entries", cv, d, len(coords))
			}
			for s := range coords {
				ti, tj := cv.SInverse(uint64(s), d)
				if got := coords[s]; got != ti<<16|tj {
					t.Fatalf("%v d=%d s=%d: table (%d,%d), SInverse (%d,%d)",
						cv, d, s, got>>16, got&0xffff, ti, tj)
				}
			}
			// Memoized: the second lookup returns the identical table.
			again := tileCoords(cv, d)
			if &again[0] != &coords[0] {
				t.Fatalf("%v d=%d: table not memoized", cv, d)
			}
		}
	}
	if tileCoords(layout.ZMorton, maxCoordDepth+1) != nil {
		t.Fatal("out-of-range depth should decline the cache")
	}
}

// TestStressArenaBudgetLadder runs multiplications under fault
// injection (including the "core.arena" reservation hook) with a
// MemBudget that forces ladder decisions: every outcome must be a
// correct result, an ErrMemBudget rejection, or an injected fault
// surfaced as a typed error — never a panic and never a wrong answer.
func TestStressArenaBudgetLadder(t *testing.T) {
	defer stressFaults()()
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(19))
	n := 96
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	want := refProduct(n, A, B)

	budgets := []int64{1 << 10, 500_000, 1 << 22, 0}
	for i := 0; i < 24; i++ {
		C := matrix.New(n, n)
		opts := Options{Curve: layout.GrayMorton, Alg: []Alg{Strassen, Winograd}[i%2],
			ForceTile: 16, MemBudget: budgets[i%len(budgets)]}
		stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
		if err == nil {
			if !matrix.Equal(C, want, 1e-10) {
				t.Fatalf("iter %d: successful run is wrong (max diff %g)", i, matrix.MaxAbsDiff(C, want))
			}
			if stats.AllocBytes < 0 || stats.ArenaBytes < 0 {
				t.Fatalf("iter %d: negative byte accounting", i)
			}
			continue
		}
		var fault *faultinject.Fault
		if !errors.Is(err, ErrMemBudget) && !errors.As(err, &fault) {
			t.Fatalf("iter %d: error is neither ErrMemBudget nor *Fault: %v", i, err)
		}
	}
}
