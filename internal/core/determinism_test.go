package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// The result of a GEMM is a pure function of (operands, shape,
// algorithm, kernel): these tests pin that it does not depend on the
// table engine's per-level schedule, on the worker count, or on whether
// the operands arrive raw or as prepacked plans. `make check` runs them
// under -cpu 1,2,4.

// opMat draws an operand whose op() is rows×cols.
func opMat(rows, cols int, trans bool, rng *rand.Rand) *matrix.Dense {
	if trans {
		return matrix.Random(cols, rows, rng)
	}
	return matrix.Random(rows, cols, rng)
}

// TestDeterminismPolicies: BFS and DFS are schedules of one
// computation — with the serial cutoff putting every table level
// breadth-first (1), the top ones only (4) and none (above the grid),
// every registered algorithm on every storage produces the same bits,
// for every transpose pair and β; and StrassenLowMem, Strassen's table
// run depth-first, produces Strassen's.
func TestDeterminismPolicies(t *testing.T) {
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(151))
	// 72×48×72 divides by every registered base partition, so on
	// canonical storage the rectangular tables run their own levels.
	m, k, n := 72, 48, 72
	for _, cv := range mulCurves {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, beta := range []float64{0, 1, 0.5} {
					A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
					C := matrix.Random(m, n, rng)
					var strassen *matrix.Dense
					for _, alg := range Algs {
						var want *matrix.Dense
						for _, cut := range []int{1, 4, 1 << 20} {
							opts := Options{Curve: cv, Alg: alg, Tile: testTile, SerialCutoff: cut, FastCutoff: 1}
							got := C.Clone()
							if _, err := GEMMCtx(context.Background(), pool, opts, ta, tb, -1.25, A, B, beta, got); err != nil {
								t.Fatalf("%v/%v ta=%v tb=%v beta=%g serial cutoff %d: %v", alg, cv, ta, tb, beta, cut, err)
							}
							if want == nil {
								want = got
							} else if !matrix.Equal(got, want, 0) {
								t.Errorf("%v/%v ta=%v tb=%v beta=%g: serial cutoff %d differs from 1, max diff %g",
									alg, cv, ta, tb, beta, cut, matrix.MaxAbsDiff(got, want))
							}
						}
						switch alg {
						case Strassen:
							strassen = want
						case StrassenLowMem:
							if !matrix.Equal(want, strassen, 0) {
								t.Errorf("%v/%v ta=%v tb=%v beta=%g: differs from %v, max diff %g",
									alg, cv, ta, tb, beta, Strassen, matrix.MaxAbsDiff(want, strassen))
							}
						}
					}
				}
			}
		}
	}
}

// TestDeterminismCostBusyPool: what a fast call costs is a function of
// its plan too. Its accounted span, its arena reservation and its zero
// heap fallbacks repeat exactly whether it has the pool to itself or
// shares it with a saturating background GEMM.
func TestDeterminismCostBusyPool(t *testing.T) {
	pool := sched.NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(153))
	n := 256
	A, B := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	for _, alg := range []Alg{Strassen, Winograd, StrassenLowMem} {
		opts := Options{Curve: layout.ZMorton, Alg: alg, ForceTile: 16, FastCutoff: 2}
		var want *Stats
		for _, busy := range []bool{false, true} {
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				bg := matrix.New(n, n)
				for busy {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := GEMM(pool, Options{Curve: layout.ZMorton, ForceTile: 16}, false, false, 1, A, B, 0, bg); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for rep := 0; rep < 5; rep++ {
				st, err := GEMM(pool, opts, false, false, 1, A, B, 0, matrix.New(n, n))
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = st
				}
				if st.Span != want.Span || st.ArenaBytes != want.ArenaBytes || st.AllocBytes != 0 {
					t.Errorf("%v busy=%v rep %d: span %g arena %d heap %d, first call span %g arena %d heap 0",
						alg, busy, rep, st.Span, st.ArenaBytes, st.AllocBytes, want.Span, want.ArenaBytes)
				}
			}
			close(stop)
			<-done
		}
	}
}

// TestDeterminismSplitEntryPoints: on wide/lean shapes every entry point
// — a per-call GEMM, the same operands as a GEMMBatch item, as a
// GEMMBatchStrided item, through Prepack(PartnerDim: n) +
// PrepackConforming + GEMMPrepacked, and as a GEMMPrepackedBatch item
// against that plan — cuts the same blocks on the same tiles and chains
// each block's products in the same order: bit for bit, at 1, 2, 4 and
// (blocks running nested) 16 workers. The shapes sit on each side of the
// deferral rule — one column of C blocks (A's segments packed by the
// blocks of a per-call wave), one row (B's), a grid of them (both packed
// up front) — so the per-call wave's in-block packs, its nested run's
// up-front plan and the resident plans must all agree; canonical
// storage, which has no plans, runs the per-call side of that alone.
// Three more shapes put most of a tile in the kernels' padded fringe
// blocks, which accumulate in per-worker scratch: 1024×1024×40 (10-wide
// tiles), 300³ (38³ tiles; one block, the entry points still agree) and
// 512×512×48 against a plan built for 64-wide partners — the serving
// shape: 32×32×6 tiles, not the per-call cut, so the plan entry points
// agree with each other there and not with the per-call one.
func TestDeterminismSplitEntryPoints(t *testing.T) {
	type shape struct {
		m, k, n  int
		deferred byte // the operand a per-call wave's blocks pack: 'A', 'B' or neither
		whole    bool // one block: nothing to split
		partner  int  // the plan's PartnerDim when it is not n
	}
	shapes := []shape{{m: 1024, k: 1024, n: 48, deferred: 'A'}, {m: 1000, k: 900, n: 40, deferred: 'A'},
		{m: 48, k: 900, n: 1000, deferred: 'B'}, {m: 600, k: 40, n: 600},
		{m: 1024, k: 1024, n: 40, deferred: 'A'}, {m: 300, k: 300, n: 300, whole: true},
		{m: 512, k: 512, n: 48, deferred: 'A', partner: 64}}
	if testing.Short() || raceEnabled {
		// The same cuts at a quarter of the size.
		shapes = []shape{{m: 250, k: 225, n: 10, deferred: 'A'}, {m: 12, k: 225, n: 250, deferred: 'B'}, {m: 150, k: 10, n: 150},
			{m: 75, k: 75, n: 75, whole: true}, {m: 128, k: 128, n: 12, deferred: 'A', partner: 16}}
	}
	var pools []*sched.Pool
	for _, w := range []int{1, 2, 4, 16} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(152))
	algs := []Alg{Standard, Winograd}
	for si, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for bi, beta := range []float64{0, 1, 0.5} {
					for _, cv := range []layout.Curve{layout.RecursiveCurves[(si+bi)%len(layout.RecursiveCurves)], layout.ColMajor} {
						A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
						C := matrix.Random(m, n, rng)
						opts := Options{Curve: cv, Alg: algs[bi%len(algs)]}
						name := fmt.Sprintf("%dx%dx%d %v/%v ta=%v tb=%v beta=%g", m, k, n, opts.Alg, opts.Curve, ta, tb, beta)

						want := C.Clone()
						st, err := GEMMCtx(ctx, pools[0], opts, ta, tb, 0.75, A, B, beta, want)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if (st.Blocks < 2) != sh.whole {
							t.Fatalf("%s: %d block(s), want a split: %v", name, st.Blocks, !sh.whole)
						}
						ref := C.Clone()
						matrix.RefGEMM(ta, tb, 0.75, A, B, beta, ref)
						if !matrix.Equal(want, ref, tol(m, k, n)) {
							t.Errorf("%s: max diff %g against the reference", name, matrix.MaxAbsDiff(want, ref))
						}
						// One worker runs any split as a wave: the deferred side
						// of the rule, when the shape has one.
						ms, ks, ns := opts.withDefaults().Tile.SplitDims(m, k, n)
						deferred := map[byte]int{'A': len(ms) * len(ks), 'B': len(ks) * len(ns)}[sh.deferred]
						if st.PackDeferred != deferred {
							t.Fatalf("%s: PackDeferred = %d, want %d", name, st.PackDeferred, deferred)
						}

						// A plan built for this n cuts the per-call blocks; one built
						// for a wider partner has its own, and its first run is
						// what its later ones must repeat.
						type result struct {
							c  *matrix.Dense
							st *Stats
						}
						percall := &result{want, st}
						plan := percall
						if sh.partner != 0 {
							plan = new(result)
						}
						for _, pool := range pools {
							// same checks one entry point's result, and the plan
							// its stats describe, against the single-worker call.
							// Only a per-call wave defers a pack.
							same := func(what string, got *matrix.Dense, gs *Stats, ref *result) {
								t.Helper()
								if ref.c == nil {
									ref.c, ref.st = got, gs
								}
								want, st := ref.c, ref.st
								if gs.Blocks != st.Blocks || gs.Depth != st.Depth || gs.TileM != st.TileM || gs.TileK != st.TileK || gs.TileN != st.TileN {
									t.Errorf("%s: %s runs %d blocks of %dx%dx%d tiles at depth %d, per-call %d of %dx%dx%d at depth %d", name, what,
										gs.Blocks, gs.TileM, gs.TileK, gs.TileN, gs.Depth, st.Blocks, st.TileM, st.TileK, st.TileN, st.Depth)
								}
								if what == "GEMMCtx" {
									if gs.ConvertBytes != st.ConvertBytes || gs.PackDeferred != 0 && gs.PackDeferred != deferred {
										t.Errorf("%s: %s at %d workers converts %d bytes, %d segments deferred; at one worker %d and %d",
											name, what, pool.Workers(), gs.ConvertBytes, gs.PackDeferred, st.ConvertBytes, deferred)
									}
								} else if gs.PackDeferred != 0 {
									t.Errorf("%s: %s defers %d packs", name, what, gs.PackDeferred)
								}
								if !matrix.Equal(got, want, 0) {
									t.Errorf("%s: %s bits differ from per-call at %d workers, max diff %g",
										name, what, pool.Workers(), matrix.MaxAbsDiff(got, want))
								}
							}
							got := C.Clone()
							gs, err := GEMMCtx(ctx, pool, opts, ta, tb, 0.75, A, B, beta, got)
							if err != nil {
								t.Fatalf("%s, %d workers: %v", name, pool.Workers(), err)
							}
							same("GEMMCtx", got, gs, percall)
							if cv == layout.ColMajor {
								continue // the plan and batch entry points take recursive layouts only
							}

							got = C.Clone()
							bs, errs, err := GEMMBatch(ctx, pool, opts, []BatchItem{{TransA: ta, TransB: tb, Alpha: 0.75, A: A, B: B, Beta: beta, C: got}})
							if err != nil || errs[0] != nil {
								t.Fatalf("%s, %d workers: GEMMBatch: %v %v", name, pool.Workers(), err, errs)
							}
							same("GEMMBatch", got, &bs.Stats, percall)

							got = C.Clone()
							bs, errs, err = GEMMBatchStrided(ctx, pool, opts, ta, tb, m, k, n, 0.75, A.Data, A.Stride, len(A.Data),
								B.Data, B.Stride, len(B.Data), beta, got.Data, got.Stride, len(got.Data), 1)
							if err != nil || errs[0] != nil {
								t.Fatalf("%s, %d workers: GEMMBatchStrided: %v %v", name, pool.Workers(), err, errs)
							}
							same("GEMMBatchStrided", got, &bs.Stats, percall)

							po := opts
							po.PartnerDim = n
							if sh.partner != 0 {
								po.PartnerDim = sh.partner
							}
							pa, err := Prepack(ctx, pool, po, A, ta)
							if err != nil {
								t.Fatalf("%s: Prepack: %v", name, err)
							}
							pb, err := PrepackConforming(ctx, pool, opts, B, tb, pa)
							if err != nil {
								t.Fatalf("%s: PrepackConforming: %v", name, err)
							}
							got = C.Clone()
							pst, err := GEMMPrepacked(ctx, pool, opts, 0.75, pa, pb, beta, got)
							pb.Release()
							if err != nil {
								t.Fatalf("%s, %d workers: GEMMPrepacked: %v", name, pool.Workers(), err)
							}
							same("GEMMPrepacked", got, pst, plan)

							got = C.Clone()
							bs, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{TransB: tb, Alpha: 0.75, B: B, Beta: beta, C: got}})
							pa.Release()
							if err != nil || errs[0] != nil {
								t.Fatalf("%s, %d workers: GEMMPrepackedBatch: %v %v", name, pool.Workers(), err, errs)
							}
							same("GEMMPrepackedBatch", got, &bs.Stats, plan)
						}
					}
				}
			}
		}
	}
}

// TestDeterminismSIMDFamilies: the two amd64 assembly families are one
// rounding class (leaf.TestAVX512MatchesAVX2Bits), so which of them a
// host registers cannot change a result: a split wide/lean call,
// square ones whose 25- and 38-row tiles leave every kind of row
// fringe, a wide/lean one on 10-wide tiles, on curve tiles (the
// whole-panel path) and canonical storage (the packed-panel path), and
// a 48-wide product on a plan built for 64-wide partners (the serving
// shape: 32×32×6 tiles, a third of each in the padded column block)
// agree bit for bit under either name.
func TestDeterminismSIMDFamilies(t *testing.T) {
	for _, name := range []string{"avx2", "avx512"} {
		if _, err := leaf.Get(name); err != nil {
			t.Skip("needs both the avx2 and the avx512 kernel")
		}
	}
	shapes := [][3]int{{1024, 1024, 48}, {200, 200, 200}, {300, 300, 300}, {1024, 1024, 40}}
	planned := [4]int{512, 512, 48, 64} // m, k, n, the plan's PartnerDim
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{256, 256, 12}, {200, 200, 200}, {256, 256, 10}}
		planned = [4]int{128, 128, 12, 16}
	}
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(171))
	ctx := context.Background()
	m, k, n := planned[0], planned[1], planned[2]
	A, B, C := matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.Random(m, n, rng)
	pa, err := Prepack(ctx, pool, Options{Curve: layout.ZMorton, PartnerDim: planned[3]}, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	pb, err := PrepackConforming(ctx, pool, Options{}, B, false, pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	c2, c5 := C.Clone(), C.Clone()
	for name, got := range map[string]*matrix.Dense{"avx2": c2, "avx512": c5} {
		st, err := GEMMPrepacked(ctx, pool, Options{KernelName: name}, 0.75, pa, pb, 0.5, got)
		if err != nil || st.Kernel != name || st.TileN%leaf.MicroN == 0 {
			t.Fatalf("%dx%dx%d on a plan for %d-wide partners, %s: ran %s on %d-wide tiles, want a column fringe: %v",
				m, k, n, planned[3], name, st.Kernel, st.TileN, err)
		}
	}
	if !matrix.Equal(c5, c2, 0) {
		t.Errorf("%dx%dx%d on a plan: avx512 bits differ from avx2, max diff %g", m, k, n, matrix.MaxAbsDiff(c5, c2))
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		A, B, C := matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.Random(m, n, rng)
		for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor} {
			var want *matrix.Dense
			for _, name := range []string{"avx2", "avx512"} {
				got := C.Clone()
				st, err := GEMMCtx(context.Background(), pool, Options{Curve: cv, KernelName: name}, false, false, 0.75, A, B, 0.5, got)
				if err != nil {
					t.Fatalf("%dx%dx%d %v %s: %v", m, k, n, cv, name, err)
				}
				if st.Kernel != name {
					t.Errorf("%dx%dx%d %v: asked for %s, ran %s", m, k, n, cv, name, st.Kernel)
				}
				if want == nil {
					want = got
				} else if !matrix.Equal(got, want, 0) {
					t.Errorf("%dx%dx%d %v: avx512 bits differ from avx2, max diff %g", m, k, n, cv, matrix.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

// TestDeterminismAutoEntryPoints: AlgAuto and the default cutoff are
// resolved once, from the geometry a call runs on, so every entry point
// that runs a geometry agrees on the algorithm and the cutoff — and so
// on the bits — whatever the rule resolves to: the paper's cutoff, an
// AVX2 leaf's, and one in between, where the square call keeps a fast
// level and the split call's squat blocks keep none. ResolveAlg answers
// the same before the call. The wide/lean shape splits per call,
// through plans and as a batch item; pre-tiled operands never split, so
// MulTiledCtx's twin there is the per-call GEMM with DisableSplit.
func TestDeterminismAutoEntryPoints(t *testing.T) {
	shapes := [][3]int{{512, 512, 512}, {1024, 1024, 48}}
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{128, 128, 128}, {256, 256, 12}} // the same grids on quarter-size tiles
	}
	ctx := context.Background()
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(161))
	for ri, cutoff := range []int{1, 8, 32} {
		useCutoff(t, cutoff)
		for si, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			A, B, C := matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.Random(m, n, rng)
			opts := Options{Curve: layout.ZMorton, Alg: AlgAuto}
			if m < 512 {
				opts.Tile = tile.Config{TMin: 4, TMax: 16, TSweet: 8, PadSlack: 0.15, MicroM: 4, MicroN: 4}
			}
			name := fmt.Sprintf("%dx%dx%d, cutoff %d", m, k, n, cutoff)
			same := func(what string, st *Stats, got, want *matrix.Dense, ref *Stats) {
				t.Helper()
				if st.Alg != ref.Alg || st.FastCutoff != ref.FastCutoff || st.FastLevels != ref.FastLevels {
					t.Errorf("%s: %s ran %v (cutoff %d, %d levels), per-call %v (cutoff %d, %d levels)", name, what,
						st.Alg, st.FastCutoff, st.FastLevels, ref.Alg, ref.FastCutoff, ref.FastLevels)
				}
				if !matrix.Equal(got, want, 0) {
					t.Errorf("%s: %s bits differ from per-call, max diff %g", name, what, matrix.MaxAbsDiff(got, want))
				}
			}

			want := C.Clone()
			st, err := GEMMCtx(ctx, pool, opts, false, false, 0.75, A, B, 0.5, want)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := ResolveAlg(opts, m, k, n); got != st.Alg {
				t.Errorf("%s: ResolveAlg says %v, the call ran %v", name, got, st.Alg)
			}
			if (st.Alg == Winograd) != (st.FastLevels > 0) || st.Alg != Winograd && st.Alg != Standard {
				t.Errorf("%s: auto ran %v with %d fast levels", name, st.Alg, st.FastLevels)
			}
			if wantAlg := [][2]Alg{{Winograd, Winograd}, {Winograd, Standard}, {Standard, Standard}}[ri][si]; st.Alg != wantAlg {
				t.Errorf("%s: auto ran %v on %d blocks of 2^%d tiles a side, want %v", name, st.Alg, st.Blocks, st.Depth, wantAlg)
			}

			po := opts
			po.PartnerDim = n
			pa, err := Prepack(ctx, pool, po, A, false)
			if err != nil {
				t.Fatalf("%s: Prepack: %v", name, err)
			}
			pb, err := PrepackConforming(ctx, pool, opts, B, false, pa)
			if err != nil {
				t.Fatalf("%s: PrepackConforming: %v", name, err)
			}
			got := C.Clone()
			pst, err := GEMMPrepacked(ctx, pool, opts, 0.75, pa, pb, 0.5, got)
			if err != nil {
				t.Fatalf("%s: GEMMPrepacked: %v", name, err)
			}
			same("GEMMPrepacked", pst, got, want, st)
			got = C.Clone()
			bs, errs, err := GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 0.75, B: B, Beta: 0.5, C: got}})
			if err != nil || errs[0] != nil {
				t.Fatalf("%s: GEMMPrepackedBatch: %v %v", name, err, errs)
			}
			same("GEMMPrepackedBatch", &bs.Stats, got, want, st)
			pa.Release()
			pb.Release()
			got = C.Clone()
			bs, errs, err = GEMMBatch(ctx, pool, opts, []BatchItem{{Alpha: 0.75, A: A, B: B, Beta: 0.5, C: got}})
			if err != nil || errs[0] != nil {
				t.Fatalf("%s: GEMMBatch: %v %v", name, err, errs)
			}
			same("GEMMBatch", &bs.Stats, got, want, st)

			// The unsplit geometry: one block on the 3-D Pick.
			whole := opts
			whole.DisableSplit = true
			wantW := C.Clone()
			wst, err := GEMMCtx(ctx, pool, whole, false, false, 0.75, A, B, 0.5, wantW)
			if err != nil {
				t.Fatalf("%s: unsplit: %v", name, err)
			}
			if st.Blocks == 1 {
				same("unsplit per-call", wst, wantW, want, st)
			}
			ta := NewTiled(opts.Curve, wst.Depth, wst.TileM, wst.TileK, m, k)
			tb := NewTiled(opts.Curve, wst.Depth, wst.TileK, wst.TileN, k, n)
			tc := NewTiled(opts.Curve, wst.Depth, wst.TileM, wst.TileN, m, n)
			if err := ta.Pack(ctx, pool, A, false, 1); err != nil {
				t.Fatal(err)
			}
			if err := tb.Pack(ctx, pool, B, false, 1); err != nil {
				t.Fatal(err)
			}
			tst, err := MulTiledCtx(ctx, pool, opts, tc, ta, tb)
			if err != nil {
				t.Fatalf("%s: MulTiledCtx: %v", name, err)
			}
			got = C.Clone()
			got.Scale(0.5)
			if err := tc.UnpackAccumulate(ctx, pool, got, 0.75, 0.5); err != nil {
				t.Fatal(err)
			}
			same("MulTiledCtx", tst, got, wantW, wst)
		}
	}
}

// coldPlanLines plans — and multiplies nothing — the shapes Auto's
// resolution turns on, under Auto and both named fast algorithms, every
// kernel name the host registered and the default, at 1, 2 and 4
// workers, with the crossover rule itself in place of the tests'
// default: one line each of what the daemon keys on and admission prices.
func coldPlanLines(t *testing.T) []string {
	useRule(t, leaf.FastCutoff)
	var lines []string
	for _, sh := range []struct {
		m, k, n int
		cv      layout.Curve
	}{{256, 256, 256, layout.ColMajor}, {1024, 1024, 1024, layout.ZMorton}, {2048, 2048, 2048, layout.ZMorton},
		{4096, 4096, 4096, layout.ZMorton}, {1024, 1024, 48, layout.ZMorton}} {
		for _, alg := range []Alg{AlgAuto, Strassen, Winograd} {
			for _, kernel := range append([]string{""}, leaf.Names()...) {
				for _, workers := range []int{1, 2, 4} {
					o := Options{Curve: sh.cv, Alg: alg, KernelName: kernel}
					o = o.withDefaults()
					pl, err := planOf(o, workers, given{}, sh.m, sh.k, sh.n)
					if err != nil {
						t.Fatalf("%dx%dx%d %v %q: planOf: %v", sh.m, sh.k, sh.n, alg, kernel, err)
					}
					var st Stats
					pl.describe(pl.alg, &st)
					resolved := ResolveAlg(o, sh.m, sh.k, sh.n)
					o.Alg = pl.alg
					ad, err := admit(o, workers, pl.ch)
					if err != nil {
						t.Fatalf("%dx%dx%d %v %q: admit: %v", sh.m, sh.k, sh.n, alg, kernel, err)
					}
					lines = append(lines, fmt.Sprintf("plan: %dx%dx%d %v %v kernel=%q workers=%d: ResolveAlg=%v FastCutoff=%d FastLevels=%d EstimatedBytes=%d",
						sh.m, sh.k, sh.n, sh.cv, alg, kernel, workers, resolved, st.FastCutoff, st.FastLevels, ad.est))
				}
			}
		}
	}
	return lines
}

// TestDeterminismAutoColdProcesses: the default cutoff is a rule, not a
// per-process measurement, so nine cold processes — this binary run
// again, three each at GOMAXPROCS 1, 2 and 4 — and this one print
// byte-identical plans: Auto's algorithm, the cutoff, the fast levels
// and the admission estimate do not depend on which process answered.
func TestDeterminismAutoColdProcesses(t *testing.T) {
	if os.Getenv("RECMAT_COLD_PLAN_CHILD") == "1" {
		fmt.Println(strings.Join(coldPlanLines(t), "\n"))
		return
	}
	want := strings.Join(coldPlanLines(t), "\n")
	for i := 0; i < 9; i++ {
		procs := []string{"1", "2", "4"}[i%3]
		cmd := osexec.Command(os.Args[0], "-test.run", "^TestDeterminismAutoColdProcesses$", "-test.cpu", procs)
		cmd.Env = append(os.Environ(), "RECMAT_COLD_PLAN_CHILD=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cold process %d (GOMAXPROCS %s): %v\n%s", i, procs, err, out)
		}
		var got []string
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "plan: ") {
				got = append(got, l)
			}
		}
		if g := strings.Join(got, "\n"); g != want {
			t.Errorf("cold process %d (GOMAXPROCS %s) plans differently:\n%s\nthis process:\n%s", i, procs, g, want)
		}
	}
}

// TestDeterminismDefaultKernel: the default kernel is read off the plan
// — CPU features and tile shape (leaf.Auto) — so a call that names no
// kernel is, bit for bit, the call that names the one Stats reports.
// A split per-call GEMM, one on forced 4×4 tiles (below a
// micro-block: the small-tile side of the rule) and a batch wave. The
// named twin carries the defaulted options, because naming a kernel
// turns off tile selection's micro-tile bias.
func TestDeterminismDefaultKernel(t *testing.T) {
	ctx := context.Background()
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(181))
	split := [3]int{1024, 1024, 48}
	if testing.Short() || raceEnabled {
		split = [3]int{256, 256, 12}
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		m, k, n int
		items   int // > 0: a GEMMBatch wave of this many members
	}{
		{"split", Options{Curve: layout.ZMorton}, split[0], split[1], split[2], 0},
		{"ForceTile 4", Options{Curve: layout.Hilbert, ForceTile: 4}, 40, 24, 36, 0},
		{"batch wave", Options{Curve: layout.ZMorton}, 64, 64, 64, 6},
	} {
		var As, Bs, Cs []*matrix.Dense
		for i := 0; i < max(tc.items, 1); i++ {
			As, Bs, Cs = append(As, matrix.Random(tc.m, tc.k, rng)), append(Bs, matrix.Random(tc.k, tc.n, rng)), append(Cs, matrix.Random(tc.m, tc.n, rng))
		}
		run := func(o Options) ([]*matrix.Dense, *Stats) {
			t.Helper()
			out := make([]*matrix.Dense, len(Cs))
			for i := range out {
				out[i] = Cs[i].Clone()
			}
			if tc.items == 0 {
				st, err := GEMMCtx(ctx, pool, o, false, false, 0.75, As[0], Bs[0], 0.5, out[0])
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				return out, st
			}
			items := make([]BatchItem, tc.items)
			for i := range items {
				items[i] = BatchItem{Alpha: 0.75, A: As[i], B: Bs[i], Beta: 0.5, C: out[i]}
			}
			bs, errs, err := GEMMBatch(ctx, pool, o, items)
			if err != nil || bs.Completed != tc.items {
				t.Fatalf("%s: %v %v", tc.name, err, errs)
			}
			return out, &bs.Stats
		}
		want, st := run(tc.opts)
		if rule := leaf.Auto(st.TileM, st.TileN, st.TileK).Name; st.Kernel != rule || (tc.opts.ForceTile == 4) != (rule == "blocked") {
			t.Errorf("%s: ran %q on %dx%dx%d tiles, leaf.Auto says %q", tc.name, st.Kernel, st.TileM, st.TileK, st.TileN, rule)
		}
		if tc.name == "split" && st.Blocks < 2 {
			t.Errorf("%dx%dx%d ran as %d block, want a split call", tc.m, tc.k, tc.n, st.Blocks)
		}
		named := tc.opts.withDefaults()
		named.KernelName = st.Kernel
		got, gst := run(named)
		if gst.Kernel != st.Kernel || gst.TileM != st.TileM || gst.TileK != st.TileK || gst.TileN != st.TileN {
			t.Errorf("%s, naming %s: ran %q on %dx%dx%d tiles, the default %q on %dx%dx%d", tc.name, st.Kernel,
				gst.Kernel, gst.TileM, gst.TileK, gst.TileN, st.Kernel, st.TileM, st.TileK, st.TileN)
		}
		for i := range got {
			if !matrix.Equal(got[i], want[i], 0) {
				t.Errorf("%s, naming %s: bits differ from the default call, max diff %g", tc.name, st.Kernel, matrix.MaxAbsDiff(got[i], want[i]))
			}
		}
	}
}

// TestDeterminismPlanNotRun: the planner's answer is the run's. For
// square, wide, lean and grid-split shapes (and their unsplit twins) on
// curve and canonical storage, under a named algorithm and under AlgAuto
// at a cutoff that keeps a fast level on the square grid and none on the
// squat blocks, planOf — what ResolveAlg builds and does not run —
// describes the same algorithm, kernel, depth, tiles, padded extents,
// cutoff, fast levels and block count as the Stats of the call that ran,
// through GEMMCtx, GEMMBatch, GEMMPrepacked and GEMMPrepackedBatch.
func TestDeterminismPlanNotRun(t *testing.T) {
	useCutoff(t, 8)
	ctx := context.Background()
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(191))
	cfg := tile.Config{TMin: 4, TMax: 16, TSweet: 8, PadSlack: 0.15, MicroM: 4, MicroN: 4}
	fastRan := false
	for _, sh := range [][3]int{{128, 128, 128}, {256, 256, 12}, {12, 225, 250}, {150, 10, 150}, {72, 48, 72}} {
		m, k, n := sh[0], sh[1], sh[2]
		A, B := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
		for _, cv := range []layout.Curve{layout.ZMorton, layout.Hilbert, layout.ColMajor} {
			for _, alg := range []Alg{AlgAuto, Standard, Standard8, Winograd, TableLaderman333} {
				for _, whole := range []bool{false, true} {
					opts := Options{Curve: cv, Alg: alg, Tile: cfg, DisableSplit: whole}
					o := opts.withDefaults()
					name := fmt.Sprintf("%dx%dx%d %v/%v DisableSplit=%v", m, k, n, alg, cv, whole)
					// same holds one entry point's Stats against the plan
					// built for it and not run.
					same := func(what string, st *Stats, workers int, gv given) {
						t.Helper()
						pl, err := planOf(o, workers, gv, m, k, n)
						if err != nil {
							t.Fatalf("%s: %s: planOf: %v", name, what, err)
						}
						want := Stats{Blocks: len(pl.ms) * len(pl.ks) * len(pl.ns)}
						pl.describe(pl.alg, &want)
						got := Stats{Alg: st.Alg, Kernel: st.Kernel, Depth: st.Depth, TileM: st.TileM, TileK: st.TileK, TileN: st.TileN,
							PaddedM: st.PaddedM, PaddedK: st.PaddedK, PaddedN: st.PaddedN,
							FastCutoff: st.FastCutoff, FastLevels: st.FastLevels, Blocks: st.Blocks}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s: %s ran\n%+v\nthe plan said\n%+v", name, what, got, want)
						}
						if alg == AlgAuto && ResolveAlg(opts, m, k, n) != st.Alg {
							t.Errorf("%s: %s ran %v, ResolveAlg says %v", name, what, st.Alg, ResolveAlg(opts, m, k, n))
						}
						fastRan = fastRan || alg == AlgAuto && st.FastLevels > 0
					}
					st, err := GEMMCtx(ctx, pool, opts, false, false, 1, A, B, 0, matrix.New(m, n))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					same("GEMMCtx", st, pool.Workers(), given{})
					if cv == layout.ColMajor {
						continue // the plan and batch entry points take recursive layouts only
					}
					bs, errs, err := GEMMBatch(ctx, pool, opts, []BatchItem{{Alpha: 1, A: A, B: B, C: matrix.New(m, n)}})
					if err != nil || errs[0] != nil {
						t.Fatalf("%s: GEMMBatch: %v %v", name, err, errs)
					}
					same("GEMMBatch", &bs.Stats, 0, given{})

					po := opts
					po.PartnerDim = n
					pa, err := Prepack(ctx, pool, po, A, false)
					if err != nil {
						t.Fatalf("%s: Prepack: %v", name, err)
					}
					pb, err := PrepackConforming(ctx, pool, opts, B, false, pa)
					if err != nil {
						t.Fatalf("%s: PrepackConforming: %v", name, err)
					}
					if st, err = GEMMPrepacked(ctx, pool, opts, 1, pa, pb, 0, matrix.New(m, n)); err != nil {
						t.Fatalf("%s: GEMMPrepacked: %v", name, err)
					}
					same("GEMMPrepacked", st, pool.Workers(), given{pa: pa, pb: pb, resident: true})
					bs, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 1, B: B, C: matrix.New(m, n)}})
					if err != nil || errs[0] != nil {
						t.Fatalf("%s: GEMMPrepackedBatch: %v %v", name, err, errs)
					}
					same("GEMMPrepackedBatch", &bs.Stats, 0, given{pa: pa, resident: true})
					pa.Release()
					pb.Release()
				}
			}
		}
	}
	if !fastRan {
		t.Error("AlgAuto never kept a fast level: the grid has no case on that side of the cutoff")
	}
}
