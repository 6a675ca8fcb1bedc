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
// the given geometry, as a call's admission would size it on a parallel
// or a serial rung.
func acquireArena(alg Alg, serial bool, side, tm, tk, tn, fastCutoff, stacks int) *arena {
	return acquireArenaElems(arenaStackElems(alg, serial, side, tm, tk, tn, fastCutoff), stacks)
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
	if got := arenaStackElems(Standard, false, 16, 8, 8, 8, 1); got != 0 {
		t.Fatalf("Standard needs %d temp elems, want 0", got)
	}
	// One Strassen level on a 2×2 grid of t×t tiles: 5+5 operand
	// temporaries and 7 products, each a single tile.
	if got, want := arenaStackElems(Strassen, false, 2, 4, 4, 4, 1), int64(17*16); got != want {
		t.Fatalf("Strassen(2): %d, want %d", got, want)
	}
	// The per-path need grows with depth and shrinks with fastCutoff.
	deep := arenaStackElems(Winograd, false, 16, 8, 8, 8, 1)
	shallow := arenaStackElems(Winograd, false, 16, 8, 8, 8, 4)
	if deep <= shallow || shallow <= 0 {
		t.Fatalf("Winograd: deep=%d shallow=%d", deep, shallow)
	}
	// Serial Strassen — every level depth-first, one S, T and P scratch
	// per level — is by far the smallest fast-algorithm footprint: the
	// property its ladder rung exists for.
	if ser, par := arenaStackElems(Strassen, true, 16, 8, 8, 8, 1), arenaStackElems(Strassen, false, 16, 8, 8, 8, 1); ser*3 >= par {
		t.Fatalf("serial strassen %d not well below parallel %d", ser, par)
	}
	// The admission estimate and the reservation share this function;
	// acquireArena must reserve exactly stacks × per-path.
	per := arenaStackElems(Strassen, false, 8, 16, 16, 16, 1)
	ar := acquireArena(Strassen, false, 8, 16, 16, 16, 1, 3)
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
// the position tables and the worker-slot kernel scratch), a serial
// Strassen or Winograd multiplication at n=512 performs zero heap
// allocations — every temporary is served by an arena sized as a serial
// rung's (the depth-first bound).
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
			ar := acquireArena(alg, true, 1<<d, ts, ts, ts, 1, 1)
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
	for _, alg := range []Alg{Standard8, Strassen, Winograd} {
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

// TestRangedEWMatchesSpec pins the ranged element-wise cores — the one
// stream when orientations agree, the per-operand position tables when
// they differ — against layout.Curve.Perm applied one tile at a time,
// over every orientation pair of Gray-Morton and Hilbert, in uneven
// chunks. Perm derives from the S functions and not from posFor, so the
// reference shares no code with the engine's tables.
func TestRangedEWMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cv := range []layout.Curve{layout.ZMorton, layout.GrayMorton, layout.Hilbert} {
		for _, tiles := range []int{1, 2, 8} {
			no, d := cv.Orientations(), log2tiles(tiles)
			for from := 0; from < no; from++ {
				for to := 0; to < no; to++ {
					mk := func(o int) Mat {
						m := Mat{tiles: tiles, tr: 4, tc: 4, curve: cv, orient: layout.Orient(o)}
						m.data = make([]float64, m.elems())
						fillRand(m.data, rng)
						return m
					}
					bo := (from + to) % no
					dst, a, b := mk(from), mk(to), mk(bo)
					nt := tiles * tiles
					tsz := dst.tileElems()
					pa := cv.Perm(layout.Orient(from), layout.Orient(to), d)
					pb := cv.Perm(layout.Orient(from), layout.Orient(bo), d)
					ad, aa, ab := addrOf(dst, d), addrOf(a, d), addrOf(b, d)
					chunks := func(body func(lo, hi int)) {
						for lo := 0; lo < nt; {
							hi := min(lo+1+rng.Intn(3), nt)
							body(lo, hi)
							lo = hi
						}
					}

					// Reference: dst tile s meets the source tile Perm
					// puts at its place, tile by tile.
					want2 := append([]float64(nil), dst.data...)
					for s := 0; s < nt; s++ {
						sa := int(pa[s])
						vAcc(want2[s*tsz:(s+1)*tsz], a.data[sa*tsz:(sa+1)*tsz])
					}
					got := dst
					got.data = append([]float64(nil), dst.data...)
					chunks(func(lo, hi int) { ew2Tiles(got, a, ad, aa, lo, hi, vAcc) })
					for i := range want2 {
						if got.data[i] != want2[i] {
							t.Fatalf("%v tiles=%d %d→%d: ew2Tiles diverges at %d", cv, tiles, from, to, i)
						}
					}

					// Same for the three-operand core.
					want3 := append([]float64(nil), dst.data...)
					for s := 0; s < nt; s++ {
						sa, sb := int(pa[s]), int(pb[s])
						vAdd(want3[s*tsz:(s+1)*tsz], a.data[sa*tsz:(sa+1)*tsz], b.data[sb*tsz:(sb+1)*tsz])
					}
					got3 := dst
					got3.data = append([]float64(nil), dst.data...)
					chunks(func(lo, hi int) { ew3Tiles(got3, a, b, ad, aa, ab, lo, hi, vAdd) })
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
			ar := acquireArena(alg, false, 1<<d, ts, ts, ts, 1, pool.Workers())
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
