package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"runtime/debug"
	"slices"
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
// for every transpose pair and β. Strassen with the cutoff above the
// grid is Section 5's space-conserving variant, every level depth-first
// through one reused scratch trio: it produces parallel Strassen's bits.
// At or below the cutoff a standard quadrant is one loop over its leaves
// (exec.base), so cutoff 1, the recursion to single tiles, is the
// oracle the loop must reproduce.
func TestDeterminismPolicies(t *testing.T) {
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(151))
	m, k, n := 72, 48, 72
	for _, cv := range mulCurves {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, beta := range []float64{0, 1, 0.5} {
					A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
					C := matrix.Random(m, n, rng)
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
					}
				}
			}
		}
	}
	// The default tile config: the serial base on deep grids (192³) and
	// on tiles off the kernels' register blocks (100³ and 300³, and the
	// split blocks of the 512×512×48 plan shape), against the recursion
	// to single tiles. A fast algorithm hands 2×2-tile quadrants to it.
	// On canonical storage — ColMajor, and one-block products multiplied
	// in place or packed to panels — a base above one tile on a chained
	// kernel is merged leaf calls (exec.base), here against the tile
	// loop; 1024×1024·1024×48 is the stream's shape.
	for _, sh := range [][3]int{{512, 512, 48}, {100, 100, 100}, {192, 192, 192}, {300, 300, 300}, {1024, 1024, 48}} {
		A, B := matrix.Random(sh[0], sh[1], rng), matrix.Random(sh[1], sh[2], rng)
		C := matrix.Random(sh[0], sh[2], rng)
		for _, cv := range []layout.Curve{layout.ZMorton, layout.Hilbert, layout.ColMajor} {
			for _, alg := range Algs {
				var want *matrix.Dense
				for _, cut := range []int{1, 4, 1 << 20} {
					opts := Options{Curve: cv, Alg: alg, SerialCutoff: cut, FastCutoff: 2}
					got := C.Clone()
					if _, err := GEMMCtx(context.Background(), pool, opts, false, false, 1.5, A, B, 0.5, got); err != nil {
						t.Fatalf("%v/%v %v serial cutoff %d: %v", alg, cv, sh, cut, err)
					}
					if want == nil {
						want = got
					} else if !matrix.Equal(got, want, 0) {
						t.Errorf("%v/%v %v: serial cutoff %d differs from 1, max diff %g",
							alg, cv, sh, cut, matrix.MaxAbsDiff(got, want))
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
	// A serial cutoff of n is serial Strassen: no level spawns.
	for _, c := range []struct {
		alg       Alg
		serialCut int
	}{{Strassen, 0}, {Winograd, 0}, {Strassen, n}} {
		alg := c.alg
		opts := Options{Curve: layout.ZMorton, Alg: alg, ForceTile: 16, FastCutoff: 2, SerialCutoff: c.serialCut}
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
// GEMMBatchStrided item, through Prepack + PrepackConforming +
// GEMMPrepacked, and as a GEMMPrepackedBatch item against that plan —
// cuts the same blocks on the same tiles and chains each block's
// products in the same order: bit for bit, at 1, 2, 4 and (blocks
// running nested) 16 workers. The plan is packed for no partner in
// particular; the partner reads the quadrants of its blocks that the
// per-call cut tiles (descent). The shapes sit on each side of the
// deferral rule — one column of C blocks (A's segments packed by the
// blocks of a per-call wave), one row (B's), a grid of them (both packed
// up front) — so the per-call wave's in-block packs, its nested run's
// up-front plan and the resident plans must all agree; canonical
// storage, which has no resident plans, runs the per-call and batch
// entry points alone.
// Three more shapes put most of a tile in the kernels' padded fringe
// blocks, which accumulate in per-worker scratch: 1024×1024×40 (10-wide
// tiles), 300³ (38³ tiles; one block, the entry points still agree) and
// 512×512×48. The thin rows — 1024²·1024×{1, 6, 48}, 512²·512×16 and
// 300²·300×48 — run on Z-Morton and on Hilbert, whose descended
// quadrants are in other orientations than their blocks. A per-call
// split is itself the descent into the plan Prepack makes of A (split),
// so 1000×900×40 and 300²·300×48, whose near-equal wide/lean segments
// are no power-of-two fraction of one block, agree too.
// Last, one plan's GEMMPrepackedBatch wave of partners 16 to 64 wide
// gives each member the bits of its own per-call GEMM.
func TestDeterminismSplitEntryPoints(t *testing.T) {
	type shape struct {
		m, k, n  int
		deferred byte // the operand a per-call wave's blocks pack: 'A', 'B' or neither
		whole    bool // one block: nothing to split
		thin     bool // a thin partner: Z-Morton and Hilbert, no ColMajor
	}
	shapes := []shape{{m: 1024, k: 1024, n: 48, deferred: 'A', thin: true}, {m: 1000, k: 900, n: 40, deferred: 'A'},
		{m: 48, k: 900, n: 1000, deferred: 'B'}, {m: 600, k: 40, n: 600},
		{m: 1024, k: 1024, n: 40, deferred: 'A'}, {m: 300, k: 300, n: 300, whole: true},
		{m: 512, k: 512, n: 48, deferred: 'A'}, {m: 1024, k: 1024, n: 1, deferred: 'A', thin: true},
		{m: 1024, k: 1024, n: 6, deferred: 'A', thin: true}, {m: 512, k: 512, n: 16, deferred: 'A', thin: true},
		{m: 300, k: 300, n: 48, deferred: 'A', thin: true}}
	if testing.Short() || raceEnabled {
		// The same cuts at a quarter of the size.
		shapes = []shape{{m: 250, k: 225, n: 10, deferred: 'A'}, {m: 12, k: 225, n: 250, deferred: 'B'}, {m: 150, k: 10, n: 150},
			{m: 75, k: 75, n: 75, whole: true}, {m: 128, k: 128, n: 12, deferred: 'A', thin: true}}
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
					curves := []layout.Curve{layout.RecursiveCurves[(si+bi)%len(layout.RecursiveCurves)], layout.ColMajor}
					if sh.thin {
						curves = []layout.Curve{layout.ZMorton, layout.Hilbert}
					}
					for _, cv := range curves {
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
						// of the rule, when the shape has one. Its blocks read in
						// place the deferred segments that are untransposed and
						// unpadded when they run the standard recursion (Standard,
						// or Winograd with no fast level), and pack the others;
						// every other segment and C tile is converted once.
						ms, ks, ns, _, err := split(opts.withDefaults(), nil, m, k, n)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						deferred := map[byte]int{'A': len(ms) * len(ks), 'B': len(ks) * len(ns)}[sh.deferred]
						if st.PackDeferred != deferred {
							t.Fatalf("%s: PackDeferred = %d, want %d", name, st.PackDeferred, deferred)
						}
						pm, pk, pn := st.PaddedM, st.PaddedK, st.PaddedN
						segA, segB := 8*int64(len(ms)*len(ks)*pm*pk), 8*int64(len(ks)*len(ns)*pk*pn)
						packed := 8*int64(len(ms)*len(ns)*pm*pn) + segA + segB
						var inPlace int64
						switch {
						case st.FastLevels != 0:
						case sh.deferred == 'A':
							inPlace = segA - consumerCopies(ms, ks, pm, pk, 1, ta)
						case sh.deferred == 'B':
							inPlace = segB - consumerCopies(ks, ns, pk, pn, 1, tb)
						}
						if st.ConvertBytes != packed-inPlace {
							t.Fatalf("%s: ConvertBytes = %d, want %d: %d packed less %d read in place", name, st.ConvertBytes, packed-inPlace, packed, inPlace)
						}

						// A plan of A, read through the quadrants of its blocks,
						// runs the per-call blocks.
						type result struct {
							c  *matrix.Dense
							st *Stats
						}
						percall := &result{want, st}
						for _, pool := range pools {
							// same checks one entry point's result, and the plan
							// its stats describe, against the single-worker call.
							// A one-item batch is a wave of one member, as the
							// call is: it packs and defers what the call at this
							// worker count does. Resident plans defer nothing.
							var direct *Stats
							same := func(what string, got *matrix.Dense, gs *Stats, ref *result) {
								t.Helper()
								want, st := ref.c, ref.st
								if gs.Blocks != st.Blocks || gs.Depth != st.Depth || gs.TileM != st.TileM || gs.TileK != st.TileK || gs.TileN != st.TileN {
									t.Errorf("%s: %s runs %d blocks of %dx%dx%d tiles at depth %d, per-call %d of %dx%dx%d at depth %d", name, what,
										gs.Blocks, gs.TileM, gs.TileK, gs.TileN, gs.Depth, st.Blocks, st.TileM, st.TileK, st.TileN, st.Depth)
								}
								switch what {
								case "GEMMCtx":
									// A nested run packs every segment up front.
									direct = gs
									converts := packed
									if gs.PackDeferred != 0 {
										converts -= inPlace
									}
									if gs.ConvertBytes != converts || gs.PackDeferred != 0 && gs.PackDeferred != deferred {
										t.Errorf("%s: %s at %d workers converts %d bytes, %d segments deferred; want %d and 0 or %d",
											name, what, pool.Workers(), gs.ConvertBytes, gs.PackDeferred, converts, deferred)
									}
								case "GEMMBatch", "GEMMBatchStrided":
									if gs.ConvertBytes != direct.ConvertBytes || gs.PackDeferred != direct.PackDeferred {
										t.Errorf("%s: %s at %d workers converts %d bytes, %d segments deferred; GEMMCtx %d and %d",
											name, what, pool.Workers(), gs.ConvertBytes, gs.PackDeferred, direct.ConvertBytes, direct.PackDeferred)
									}
								case "GEMMPrepacked":
									if gs.PackDeferred != 0 {
										t.Errorf("%s: %s defers %d packs", name, what, gs.PackDeferred)
									}
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
							if cv == layout.ColMajor {
								continue // the plan entry points take recursive layouts only
							}

							pa, err := Prepack(ctx, pool, opts, A, ta)
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
							same("GEMMPrepacked", got, pst, percall)

							got = C.Clone()
							bs, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{TransB: tb, Alpha: 0.75, B: B, Beta: beta, C: got}})
							pa.Release()
							if err != nil || errs[0] != nil {
								t.Fatalf("%s, %d workers: GEMMPrepackedBatch: %v %v", name, pool.Workers(), err, errs)
							}
							same("GEMMPrepackedBatch", got, &bs.Stats, percall)
						}
					}
				}
			}
		}
	}

	// The fast algorithms' bits follow their blocks, so the rows on which a
	// direct call once kept a cut of its own, which a plan could not follow
	// (1500²·1500×48, 2000×64·64×16, 10000×64·64×16, 3000×200·200×8,
	// 700²·700×100), and a whole 64×64×16, must give one set of bits per
	// algorithm through GEMMCtx, GEMMPrepacked and GEMMPrepackedBatch: for
	// Winograd and Strassen, recursed to single tiles and at the crossover
	// rule's cutoff, one layout a row.
	forks := [][3]int{{1500, 1500, 48}, {2000, 64, 16}, {10000, 64, 16}, {3000, 200, 8}, {700, 700, 100}, {64, 64, 16}}
	if testing.Short() || raceEnabled {
		forks = [][3]int{{2000, 64, 16}, {64, 64, 16}}
	}
	for _, rule := range []string{"cutoff 1", "the crossover rule"} {
		t.Run(rule, func(t *testing.T) {
			if rule != "cutoff 1" {
				useRule(t, leaf.FastCutoff)
			}
			pool := pools[1]
			for si, sh := range forks {
				m, k, n := sh[0], sh[1], sh[2]
				A, B, C := matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.Random(m, n, rng)
				cv := layout.RecursiveCurves[si%len(layout.RecursiveCurves)]
				for _, alg := range []Alg{Winograd, Strassen} {
					opts := Options{Curve: cv, Alg: alg}
					name := fmt.Sprintf("%dx%dx%d %v/%v, %s", m, k, n, alg, cv, rule)
					want := C.Clone()
					st, err := GEMMCtx(ctx, pool, opts, false, false, 0.75, A, B, 0.5, want)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					pa, err := Prepack(ctx, pool, opts, A, false)
					if err != nil {
						t.Fatalf("%s: Prepack: %v", name, err)
					}
					pb, err := PrepackConforming(ctx, pool, opts, B, false, pa)
					if err != nil {
						t.Fatalf("%s: PrepackConforming: %v", name, err)
					}
					got := C.Clone()
					ps, err := GEMMPrepacked(ctx, pool, opts, 0.75, pa, pb, 0.5, got)
					pb.Release()
					if err != nil {
						t.Fatalf("%s: GEMMPrepacked: %v", name, err)
					}
					batched := C.Clone()
					bs, errs, err := GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 0.75, B: B, Beta: 0.5, C: batched}})
					pa.Release()
					if err == nil {
						err = errs[0]
					}
					if err != nil {
						t.Fatalf("%s: GEMMPrepackedBatch: %v", name, err)
					}
					for _, r := range []struct {
						what string
						c    *matrix.Dense
						st   *Stats
					}{{"GEMMPrepacked", got, ps}, {"GEMMPrepackedBatch", batched, &bs.Stats}} {
						if r.st.Blocks != st.Blocks || r.st.Depth != st.Depth || r.st.TileM != st.TileM || r.st.TileK != st.TileK ||
							r.st.TileN != st.TileN || r.st.FastLevels != st.FastLevels || !matrix.Equal(r.c, want, 0) {
							t.Errorf("%s: %s runs %d blocks at depth %d on %dx%dx%d tiles, %d fast levels, %g from GEMMCtx's bits; GEMMCtx %d at %d on %dx%dx%d, %d",
								name, r.what, r.st.Blocks, r.st.Depth, r.st.TileM, r.st.TileK, r.st.TileN, r.st.FastLevels, matrix.MaxAbsDiff(r.c, want),
								st.Blocks, st.Depth, st.TileM, st.TileK, st.TileN, st.FastLevels)
						}
					}
				}
			}
		})
	}

	// One plan serves a wave of partners of several widths — the wave the
	// daemon's coalescer builds from requests on one named operand — and
	// each member has the bits of its own per-call GEMM, the descent of
	// the plan Prepack made: a direct call reads A through that plan's
	// quadrants too.
	wm := 1024
	if testing.Short() || raceEnabled {
		wm = 512
	}
	A := matrix.Random(wm, wm, rng)
	for _, cv := range []layout.Curve{layout.ZMorton, layout.Hilbert} {
		for _, alg := range algs {
			opts := Options{Curve: cv, Alg: alg}
			for _, pool := range pools {
				pa, err := Prepack(ctx, pool, opts, A, false)
				if err != nil {
					t.Fatal(err)
				}
				var items []PrepackedBatchItem
				var wants []*matrix.Dense
				for _, n := range []int{16, 32, 48, 64} {
					B, C := matrix.Random(wm, n, rng), matrix.Random(wm, n, rng)
					want := C.Clone()
					if _, err := GEMMCtx(ctx, pool, opts, false, false, 0.75, A, B, 0.5, want); err != nil {
						t.Fatal(err)
					}
					items, wants = append(items, PrepackedBatchItem{Alpha: 0.75, B: B, Beta: 0.5, C: C}), append(wants, want)
				}
				_, errs, err := GEMMPrepackedBatch(ctx, pool, opts, pa, items)
				pa.Release()
				if err != nil {
					t.Fatal(err)
				}
				for i, it := range items {
					if errs[i] != nil || !matrix.Equal(it.C, wants[i], 0) {
						t.Errorf("%d² %v %v, %d workers: the %d-wide member of a mixed wave: err %v, max diff %g from its per-call GEMM",
							wm, cv, alg, pool.Workers(), it.C.Cols, errs[i], matrix.MaxAbsDiff(it.C, wants[i]))
					}
				}
			}
		}
	}
}

// TestDeterminismOneCut: a product is cut one way whatever its entry
// point. Over a grid of shapes — m and k of 16 to 10,000, n of 1 to
// 10,000, m·k·n up to 4·10¹⁰ — planOf for a direct call gives the same
// blocks (segments of m, k and n), depth and tiles as planOf for the same
// product through the plan Prepack makes of A (planA), and through that
// plan and the one PrepackConforming makes of B against it: on the
// library's tiles, on a named kernel's (no register-block rounding) and
// on forced square tiles.
func TestDeterminismOneCut(t *testing.T) {
	grid := []int{1, 3, 8, 16, 24, 32, 40, 48, 64, 96, 100, 128, 150, 192, 200, 250, 256, 300, 384, 500,
		512, 600, 700, 900, 1000, 1024, 1500, 2000, 3000, 10000}
	sameCut := func(a, b *plan) bool {
		return a.g == b.g && slices.Equal(a.ms, b.ms) && slices.Equal(a.ks, b.ks) && slices.Equal(a.ns, b.ns)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"default", Options{}}, {"blocked", Options{KernelName: "blocked"}}, {"forced 16", Options{ForceTile: 16}}} {
		o := tc.opts.withDefaults()
		shapes, forks := 0, 0
		for _, m := range grid[3:] {
			for _, k := range grid[3:] {
				rs, cs, _ := splitSegs(o, m, k, m)
				pa, err := planA(o, rs, cs)
				if err != nil {
					t.Fatalf("%dx%d: planA: %v", m, k, err)
				}
				for _, n := range grid {
					if float64(m)*float64(k)*float64(n) > 4e10 {
						continue
					}
					shapes++
					direct, err := planOf(o, 0, given{}, m, k, n)
					if err != nil {
						t.Fatalf("%dx%dx%d: %v", m, k, n, err)
					}
					viaA, err := planOf(o, 0, given{pa: &pa}, m, k, n)
					if err != nil {
						t.Fatalf("%dx%dx%d through A's plan: %v", m, k, n, err)
					}
					pb := newPlan(viaA.g.hdrB(), viaA.ks, viaA.ns) // PrepackConforming's
					viaAB, err := planOf(o, 0, given{pa: &pa, pb: pb}, m, k, n)
					if err != nil {
						t.Fatalf("%dx%dx%d through both plans: %v", m, k, n, err)
					}
					if !sameCut(direct, viaA) || !sameCut(direct, viaAB) {
						if forks++; forks <= 5 {
							t.Errorf("%s %dx%dx%d: direct %d×%d×%d blocks at depth %d on %dx%dx%d tiles; through A's plan %d×%d×%d at %d on %dx%dx%d; through both %d×%d×%d at %d on %dx%dx%d",
								tc.name, m, k, n, len(direct.ms), len(direct.ks), len(direct.ns), direct.g.d, direct.g.tm, direct.g.tk, direct.g.tn,
								len(viaA.ms), len(viaA.ks), len(viaA.ns), viaA.g.d, viaA.g.tm, viaA.g.tk, viaA.g.tn,
								len(viaAB.ms), len(viaAB.ks), len(viaAB.ns), viaAB.g.d, viaAB.g.tm, viaAB.g.tk, viaAB.g.tn)
						}
					}
				}
			}
		}
		if forks > 0 {
			t.Errorf("%s: %d of %d shapes cut two ways", tc.name, forks, shapes)
		}
	}
}

// TestDeterminismSIMDFamilies: the two amd64 assembly families are one
// rounding class (leaf.TestAVX512MatchesAVX2Bits), so which of them a
// host registers cannot change a result: a split wide/lean call,
// square ones whose 25- and 38-row tiles leave every kind of row
// fringe, a wide/lean one on 10-wide tiles, on curve tiles and on
// canonical storage (both read in place by the whole-panel body), and
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
	planned := [3]int{512, 512, 40} // 32×32×10 tiles on the plan's quadrants
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{256, 256, 12}, {200, 200, 200}, {256, 256, 10}}
		planned = [3]int{128, 128, 10}
	}
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(171))
	ctx := context.Background()
	m, k, n := planned[0], planned[1], planned[2]
	A, B, C := matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.Random(m, n, rng)
	pa, err := Prepack(ctx, pool, Options{Curve: layout.ZMorton}, A, false)
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
			t.Fatalf("%dx%dx%d on a plan, %s: ran %s on %d-wide tiles, want a column fringe: %v",
				m, k, n, name, st.Kernel, st.TileN, err)
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

// TestDeterminismTileInvariant: on a chained kernel (leaf.Impl.Chained:
// every register-blocked family, packed8x4 included, so every build has
// one) every element of a Standard product is its C, then ascending-k FMAs,
// fringe included, so the tile size the paper's §4 picks changes speed
// and not bits. Off-grid, on-grid and sub-block tiles (ForceTile 0, the
// default, through 64), three layouts, α = 1.5 with B stored transposed,
// β 0 and 0.5, and three entry points — GEMMCtx, a two-member GEMMBatch,
// and on the recursive layouts Prepack + GEMMPrepacked — give one set of
// bits per shape and β.
func TestDeterminismTileInvariant(t *testing.T) {
	var kernels []string
	for _, name := range leaf.Names() {
		if impl, _ := leaf.GetImpl(name); impl.Chained {
			kernels = append(kernels, name)
		}
	}
	shapes := [][3]int{{100, 100, 100}, {150, 150, 150}, {96, 96, 96}, {200, 136, 72}, {300, 300, 48}} // m, k, n
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{100, 100, 100}, {200, 136, 72}}
	}
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(451))
	ctx := context.Background()
	const alpha = 1.5
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		A, B, C := matrix.Random(m, k, rng), matrix.Random(n, k, rng), matrix.Random(m, n, rng)
		for _, beta := range []float64{0, 0.5} {
			var want *matrix.Dense
			var first string
			same := func(got *matrix.Dense, what string) {
				if want == nil {
					want, first = got, what
				} else if !matrix.Equal(got, want, 0) {
					t.Errorf("%dx%dx%d β %g: %s differs from %s, max diff %g", m, k, n, beta, what, first, matrix.MaxAbsDiff(got, want))
				}
			}
			for _, name := range kernels {
				for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor, layout.Hilbert} {
					for _, ft := range []int{0, 8, 13, 25, 32, 38, 50, 64} {
						opts := Options{Curve: cv, Alg: Standard, KernelName: name, ForceTile: ft}
						what := fmt.Sprintf("%s %v tile %d", name, cv, ft)
						got := C.Clone()
						if _, err := GEMMCtx(ctx, pool, opts, false, true, alpha, A, B, beta, got); err != nil {
							t.Fatalf("%s GEMMCtx: %v", what, err)
						}
						same(got, what+" GEMMCtx")
						items := []BatchItem{{TransB: true, Alpha: alpha, A: A, B: B, Beta: beta, C: C.Clone()},
							{TransB: true, Alpha: alpha, A: A, B: B, Beta: beta, C: C.Clone()}}
						if _, _, err := GEMMBatch(ctx, pool, opts, items); err != nil {
							t.Fatalf("%s GEMMBatch: %v", what, err)
						}
						same(items[0].C, what+" GEMMBatch[0]")
						same(items[1].C, what+" GEMMBatch[1]")
						if cv == layout.ColMajor {
							continue // a plan is recursive storage
						}
						pa, err := Prepack(ctx, pool, opts, A, false)
						if err != nil {
							t.Fatalf("%s Prepack: %v", what, err)
						}
						pb, err := PrepackConforming(ctx, pool, opts, B, true, pa)
						if err != nil {
							t.Fatalf("%s PrepackConforming: %v", what, err)
						}
						got = C.Clone()
						if _, err := GEMMPrepacked(ctx, pool, opts, alpha, pa, pb, beta, got); err != nil {
							t.Fatalf("%s GEMMPrepacked: %v", what, err)
						}
						pa.Release()
						pb.Release()
						same(got, what+" GEMMPrepacked")
					}
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
// through plans and as a batch item; one-block plans on the unsplit
// call's tiles never split, so MulPrepacked's twin there is the per-call
// GEMM with DisableSplit.
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

			pa, err := Prepack(ctx, pool, opts, A, false)
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
			tst, err := MulPrepacked(ctx, pool, opts, asPlan(tc), asPlan(ta), asPlan(tb))
			if err != nil {
				t.Fatalf("%s: MulPrepacked: %v", name, err)
			}
			got = C.Clone() // the epilogue applies β
			if err := tc.UnpackAccumulate(ctx, pool, got, 0.75, 0.5); err != nil {
				t.Fatal(err)
			}
			same("MulPrepacked", tst, got, wantW, wst)
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
// — CPU features (leaf.Auto), one family at every tile shape — so a call
// that names no kernel is, bit for bit, the call that names the one
// Stats reports. A split per-call GEMM, one on forced 4×4 tiles (below
// a micro-block, one padded block each) and a batch wave. The
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
		if rule := leaf.Auto(st.TileM, st.TileN, st.TileK).Name; st.Kernel != rule {
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
// describes the same algorithm, layout, kernel, depth, tiles, padded extents,
// cutoff, fast levels and block count as the Stats of the call that ran,
// through GEMMCtx, GEMMBatch, GEMMPrepacked, GEMMPrepackedBatch and — on
// the unsplit call's tiles — MulPrepacked.
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
			for _, alg := range []Alg{AlgAuto, Standard, Standard8, Winograd, Strassen} {
				for _, unsplit := range []bool{false, true} {
					opts := Options{Curve: cv, Alg: alg, Tile: cfg, DisableSplit: unsplit}
					o := opts.withDefaults()
					name := fmt.Sprintf("%dx%dx%d %v/%v DisableSplit=%v", m, k, n, alg, cv, unsplit)
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
						got := Stats{Alg: st.Alg, Layout: st.Layout, Kernel: st.Kernel, Depth: st.Depth, TileM: st.TileM, TileK: st.TileK, TileN: st.TileN,
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
					bs, errs, err := GEMMBatch(ctx, pool, opts, []BatchItem{{Alpha: 1, A: A, B: B, C: matrix.New(m, n)}})
					if err != nil || errs[0] != nil {
						t.Fatalf("%s: GEMMBatch: %v %v", name, err, errs)
					}
					same("GEMMBatch", &bs.Stats, pool.Workers(), given{})
					if cv == layout.ColMajor {
						continue // the plan entry points take recursive layouts only
					}

					pa, err := Prepack(ctx, pool, opts, A, false)
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
					same("GEMMPrepacked", st, pool.Workers(), given{pa: pa, pb: pb})
					bs, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{Alpha: 1, B: B, C: matrix.New(m, n)}})
					if err != nil || errs[0] != nil {
						t.Fatalf("%s: GEMMPrepackedBatch: %v %v", name, err, errs)
					}
					same("GEMMPrepackedBatch", &bs.Stats, pool.Workers(), given{pa: pa})
					pa.Release()
					pb.Release()
					if !unsplit {
						continue
					}
					// MulPrepacked's operands, one-block plans tiled as the unsplit call tiles them.
					pl, err := planOf(o, pool.Workers(), given{}, m, k, n)
					if err != nil {
						t.Fatalf("%s: planOf: %v", name, err)
					}
					g := pl.g
					ta, tb := NewTiled(cv, g.d, g.tm, g.tk, m, k), NewTiled(cv, g.d, g.tk, g.tn, k, n)
					if err := errors.Join(ta.Pack(ctx, pool, A, false, 1), tb.Pack(ctx, pool, B, false, 1)); err != nil {
						t.Fatalf("%s: Pack: %v", name, err)
					}
					if st, err = MulPrepacked(ctx, pool, opts, asPlan(NewTiled(cv, g.d, g.tm, g.tn, m, n)), asPlan(ta), asPlan(tb)); err != nil {
						t.Fatalf("%s: MulPrepacked: %v", name, err)
					}
					same("MulPrepacked", st, pool.Workers(), given{pa: asPlan(ta), pb: asPlan(tb)})
				}
			}
		}
	}
	if !fastRan {
		t.Error("AlgAuto never kept a fast level: the grid has no case on that side of the cutoff")
	}
}

// leastBudget is the smallest budget admit takes for a lone call of the
// plan of an m×k×n product on pool, found by bisection below est on admit
// alone: nothing runs.
func leastBudget(t *testing.T, pool *sched.Pool, o Options, gv given, m, k, n int, est int64) int64 {
	t.Helper()
	o = o.withDefaults()
	if gv.pa != nil {
		o.Curve = gv.pa.Curve
	}
	pl, err := planOf(o, pool.Workers(), gv, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), est // refused above 0 up to lo, admitted at hi
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		o.MemBudget = mid
		if _, err := admit(o, pool.Workers(), pl.ch); err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TestDeterminismMemBudget: a budget changes what a call holds at once,
// never its bits. Each shape runs unbudgeted, then under budgets from its
// estimate down to the least admission takes (found on admit alone):
// every admitted call, through GEMMCtx and a one-item GEMMBatch — or, for
// a resident A, a one-item GEMMPrepackedBatch — returns the unbudgeted
// bits with no member error, and a byte less is refused.
func TestDeterminismMemBudget(t *testing.T) {
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(371))
	lean, big := matrix.Random(48, 2048, rng), matrix.Random(2048, 2048, rng)
	budgets := func(est, floor int64) []int64 {
		var bs []int64
		for b := est; b > floor; b = b * 3 / 4 {
			bs = append(bs, b)
		}
		return append(bs, floor)
	}
	for _, tc := range []struct {
		name     string
		A, B     *matrix.Dense
		transB   bool
		opts     Options
		resident bool
	}{
		{name: "48x2048x2048", A: lean, B: big},
		{name: "2048x2048x48ᵀ", A: big, B: lean, transB: true},
		{name: "20x300x300", A: matrix.Random(20, 300, rng), B: matrix.Random(300, 300, rng), opts: Options{Tile: testTile}},
		{name: "resident 300x300x120", A: matrix.Random(300, 300, rng), B: matrix.Random(300, 120, rng),
			opts: Options{Tile: testTile}, resident: true},
	} {
		m, k := tc.A.Rows, tc.A.Cols
		_, n := opShape(tc.B, tc.transB)
		C0 := matrix.Random(m, n, rng)
		for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor} {
			if tc.resident && cv != layout.ZMorton {
				continue
			}
			name := fmt.Sprintf("%s %v", tc.name, cv)
			opts := tc.opts
			opts.Curve, opts.Alg = cv, Standard
			var gv given
			// call runs the shape's entry points under opts, each on a copy of C0.
			call := func(opts Options) (outs []*matrix.Dense, ests []int64, err error) {
				if tc.resident {
					C := C0.Clone()
					bs, errs, err := GEMMPrepackedBatch(ctx, pool, opts, gv.pa, []PrepackedBatchItem{{Alpha: 1.5, B: tc.B, Beta: 0.5, C: C}})
					if err == nil && errs[0] != nil {
						t.Fatalf("%s, budget %d: GEMMPrepackedBatch member: %v", name, opts.MemBudget, errs[0])
					}
					if err != nil {
						return nil, nil, err
					}
					return []*matrix.Dense{C}, []int64{bs.EstimatedBytes}, nil
				}
				C, Cb := C0.Clone(), C0.Clone()
				st, err := GEMMCtx(ctx, pool, opts, false, tc.transB, 1.5, tc.A, tc.B, 0.5, C)
				if err != nil {
					return nil, nil, err
				}
				bs, errs, err := GEMMBatch(ctx, pool, opts, []BatchItem{{TransB: tc.transB, Alpha: 1.5, A: tc.A, B: tc.B, Beta: 0.5, C: Cb}})
				if err == nil {
					err = errs[0]
				}
				if err != nil {
					t.Fatalf("%s, budget %d: GEMMCtx admitted, one-item GEMMBatch: %v", name, opts.MemBudget, err)
				}
				return []*matrix.Dense{C, Cb}, []int64{st.EstimatedBytes, bs.EstimatedBytes}, nil
			}
			if tc.resident {
				pa, err := Prepack(ctx, pool, opts, tc.A, false)
				if err != nil {
					t.Fatal(err)
				}
				defer pa.Release()
				gv = given{pa: pa}
			}
			want, ests, err := call(opts)
			if err != nil {
				t.Fatalf("%s: unbudgeted: %v", name, err)
			}
			for _, got := range want[1:] {
				if !matrix.Equal(got, want[0], 0) {
					t.Fatalf("%s: unbudgeted entry points disagree", name)
				}
			}
			floor := leastBudget(t, pool, opts, gv, m, k, n, ests[0])
			for _, b := range budgets(ests[0], floor) {
				opts.MemBudget = b
				outs, ests, err := call(opts)
				if err != nil {
					t.Errorf("%s: budget %s (least %s): %v", name, fmtBytes(b), fmtBytes(floor), err)
					continue
				}
				for i, got := range outs {
					if ests[i] > b {
						t.Errorf("%s: budget %d admitted an estimate of %d", name, b, ests[i])
					}
					if !matrix.Equal(got, want[0], 0) {
						t.Errorf("%s: budget %s, entry point %d: bits differ from the unbudgeted call's, max diff %g",
							name, fmtBytes(b), i, matrix.MaxAbsDiff(got, want[0]))
					}
				}
			}
			opts.MemBudget = floor - 1
			if _, _, err := call(opts); !errors.Is(err, ErrMemBudget) {
				t.Errorf("%s: budget %d, a byte under the least: err = %v, want ErrMemBudget", name, floor-1, err)
			}
		}
	}
}

// TestDeterminismInPlaceSegments: a deferred segment that needs neither
// padding nor transposition is read where it lies, at the caller's
// leading dimension, by the block that consumes it on the standard
// recursion (Prepacked.mat) — a change of cost, never of bits. A
// 1024×1024·1024×48 call defers A and 48×1024·1024×1024 defers B; both
// operands are strided views. On Z-Morton, ColMajor and Hilbert, at 1,
// 2 and 4 workers, for β = 0 and 0.5, through GEMMCtx and a one-item
// GEMMBatch, unbudgeted and under the least MemBudget admission takes
// (every transient segment then goes to its consumers), each call
// returns the bits of its twin: the same product with the deferred
// operand stored transposed, whose segments its consumers pack. Both
// bring the same segments (PackDeferred); only the twin converts the
// deferred operand's bytes (ConvertBytes). A one-worker call allocates
// no more than its twin. A fast algorithm reads in place only with no
// fast level to run.
func TestDeterminismInPlaceSegments(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(381))
	// strided draws an r×c view whose stride exceeds its rows.
	strided := func(r, c int) *matrix.Dense { return matrix.Random(r+5, c, rng).View(3, 0, r, c) }
	type operands struct {
		ta, tb bool
		A, B   *matrix.Dense
	}
	shapes := [][3]int{{1024, 1024, 48}, {48, 1024, 1024}}
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{256, 256, 12}, {12, 256, 256}}
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		deferA := n < m
		in := operands{A: strided(m, k), B: strided(k, n)}
		twin, moved := in, int64(8*k*n)
		if deferA {
			twin.ta, twin.A, moved = true, in.A.Transpose(), int64(8*m*k)
		} else {
			twin.tb, twin.B = true, in.B.Transpose()
		}
		C0 := matrix.Random(m, n, rng)
		for _, workers := range []int{1, 2, 4} {
			pool := sched.NewPool(workers)
			for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor, layout.Hilbert} {
				for _, beta := range []float64{0, 0.5} {
					opts := Options{Curve: cv, Alg: Standard}
					name := fmt.Sprintf("%dx%dx%d %v beta=%g, %d workers", m, k, n, cv, beta, workers)
					call := func(opts Options, op operands, batch bool) (*matrix.Dense, *Stats) {
						t.Helper()
						C := C0.Clone()
						if !batch {
							st, err := GEMMCtx(ctx, pool, opts, op.ta, op.tb, 1.5, op.A, op.B, beta, C)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							return C, st
						}
						bs, errs, err := GEMMBatch(ctx, pool, opts, []BatchItem{{TransA: op.ta, TransB: op.tb, Alpha: 1.5, A: op.A, B: op.B, Beta: beta, C: C}})
						if err == nil {
							err = errs[0]
						}
						if err != nil {
							t.Fatalf("%s: GEMMBatch: %v", name, err)
						}
						return C, &bs.Stats
					}
					_, full := call(opts, in, false)
					least := leastBudget(t, pool, opts, given{}, m, k, n, full.EstimatedBytes)
					var ref *matrix.Dense
					for _, budget := range []int64{0, least} {
						opts.MemBudget = budget
						for _, batch := range []bool{false, true} {
							what := fmt.Sprintf("%s, budget %d, batch %v", name, budget, batch)
							got, st := call(opts, in, batch)
							want, ts := call(opts, twin, batch)
							if ref == nil {
								ref = want
							}
							if !matrix.Equal(got, want, 0) || !matrix.Equal(want, ref, 0) {
								t.Errorf("%s: in place %g and packed %g from the first call's bits", what,
									matrix.MaxAbsDiff(got, ref), matrix.MaxAbsDiff(want, ref))
							}
							if budget != 0 && (!strings.Contains(strings.Join(st.Degraded, ";"), "its blocks pack them") || st.EstimatedBytes > budget) {
								t.Errorf("%s: est %d, notes %q, want the consumed path", what, st.EstimatedBytes, st.Degraded)
							}
							if st.PackDeferred == 0 || st.PackDeferred != ts.PackDeferred || ts.ConvertBytes-st.ConvertBytes != moved {
								t.Errorf("%s: %d segments deferred converting %d bytes, packed twin %d converting %d; want %d bytes apart",
									what, st.PackDeferred, st.ConvertBytes, ts.PackDeferred, ts.ConvertBytes, moved)
							}
						}
					}
					if workers == 1 && beta == 0 && !raceEnabled {
						// Warm, with no collection to empty the buffer pool.
						opts.MemBudget = 0
						restore := debug.SetGCPercent(-1)
						allocs := func(op operands) float64 {
							return testing.AllocsPerRun(10, func() { call(opts, op, false) })
						}
						allocs(in)
						allocs(twin)
						a, b := allocs(in), allocs(twin)
						debug.SetGCPercent(restore)
						if a > b {
							t.Errorf("%s: %.0f allocations a call in place, %.0f packing", name, a, b)
						}
					}
					// Winograd with no fast level (a cutoff above the grid, or
					// a grid of one tile) runs the standard recursion from the
					// root and reads in place, for Standard's bits; with one,
					// its additions need packed operands.
					if workers == 2 && beta == 0 {
						for _, cut := range []int{1 << 20, 1} {
							opts := Options{Curve: cv, Alg: Winograd, FastCutoff: cut}
							got, st := call(opts, in, false)
							want, ts := call(opts, twin, false)
							copied, std := ts.ConvertBytes-st.ConvertBytes, st.FastLevels == 0
							if !matrix.Equal(got, want, 0) || std && (copied != moved || !matrix.Equal(got, ref, 0)) || !std && copied != 0 {
								t.Errorf("%s: Winograd, cutoff %d, %d fast levels: %d bytes more converted by the packed twin, diff %g from it, %g from Standard",
									name, cut, st.FastLevels, copied, matrix.MaxAbsDiff(got, want), matrix.MaxAbsDiff(got, ref))
							}
						}
					}
				}
			}
			pool.Close()
		}
	}
}

// TestDeterminismInPlaceProduct: a product of one block of at most
// inPlaceSide tiles a side on the standard recursion is multiplied where
// it lies — an untransposed operand that needs no padding is read at the
// caller's leading dimension, and a β = 0, α = 1 product goes straight
// into C — a change of cost, never of bits. On Z-Morton, ColMajor and
// Hilbert, for α ∈ {1, 1.5} and β ∈ {0, 0.5}, at 1, 2 and 4 workers,
// through GEMMCtx, GEMMBatch, GEMMBatchStrided and a one-item
// GEMMPrepackedBatch (A resident; not on ColMajor, which has no plans),
// every call returns the bits of its twins: the same product with A, or
// B, stored transposed, which packs it; and, for β = 0, α = 1, Pack +
// MulPrepacked into a zeroed C plan + Unpack, whose C never goes in
// place (on Z-Morton for ColMajor: the standard recursion's bits are one
// set over the layouts). The shapes read 32-, 24-, 25- and 48-wide tiles
// (the 25 with a fringe in the leaf) on grids of 2 to 8 tiles a side —
// 384³ on 48-wide tiles, 8 a side; a padded one-block shape and 128³ on
// forced 8-wide tiles, 16 a side, keep packing. An
// untransposed α = 1, β = 0 member converts nothing, and at one worker
// allocates no more than its packing twin.
func TestDeterminismInPlaceProduct(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(393))
	// strided draws an r×c view whose stride exceeds its rows.
	strided := func(r, c int) *matrix.Dense { return matrix.Random(r+3, c, rng).View(2, 0, r, c) }
	type shape struct {
		m, k, n int
		inPlace bool
		force   int // Options.ForceTile
	}
	shapes := []shape{{64, 64, 64, true, 0}, {96, 96, 96, true, 0}, {100, 100, 100, true, 0}, {192, 192, 192, true, 0},
		{256, 256, 256, true, 0}, {320, 320, 320, true, 0}, {384, 384, 384, true, 0}, {97, 97, 97, false, 0}, {128, 128, 128, false, 8}}
	if testing.Short() || raceEnabled {
		shapes = []shape{{64, 64, 64, true, 0}, {100, 100, 100, true, 0}, {97, 97, 97, false, 0}, {128, 128, 128, false, 8}}
	}
	pools := map[int]*sched.Pool{}
	for _, w := range []int{1, 2, 4} {
		pools[w] = sched.NewPool(w)
		defer pools[w].Close()
	}
	type operands struct {
		ta, tb bool
		A, B   *matrix.Dense
	}
	for _, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
		in := operands{A: strided(m, k), B: strided(k, n)}
		twinA, twinB := operands{ta: true, A: in.A.Transpose(), B: in.B}, operands{tb: true, A: in.A, B: in.B.Transpose()}
		C0 := strided(m, n)
		for _, cv := range []layout.Curve{layout.ZMorton, layout.ColMajor, layout.Hilbert} {
			opts := Options{Curve: cv, Alg: Standard, ForceTile: sh.force}
			for _, ab := range [][2]float64{{1, 0}, {1, 0.5}, {1.5, 0}, {1.5, 0.5}} {
				alpha, beta := ab[0], ab[1]
				name := fmt.Sprintf("%dx%dx%d %v alpha=%g beta=%g", m, k, n, cv, alpha, beta)
				// run multiplies op through entry point e on pool.
				run := func(e string, pool *sched.Pool, op operands) (*matrix.Dense, *Stats) {
					t.Helper()
					C := matrix.Random(m+1, n, rng).View(1, 0, m, n)
					C.CopyFrom(C0)
					var st *Stats
					var errs []error
					var err error
					var bs *BatchStats
					switch e {
					case "GEMMCtx":
						st, err = GEMMCtx(ctx, pool, opts, op.ta, op.tb, alpha, op.A, op.B, beta, C)
					case "GEMMBatch":
						bs, errs, err = GEMMBatch(ctx, pool, opts, []BatchItem{{TransA: op.ta, TransB: op.tb, Alpha: alpha, A: op.A, B: op.B, Beta: beta, C: C}})
					case "GEMMBatchStrided":
						bs, errs, err = GEMMBatchStrided(ctx, pool, opts, op.ta, op.tb, m, k, n, alpha,
							op.A.Data, op.A.Stride, len(op.A.Data), op.B.Data, op.B.Stride, len(op.B.Data), beta, C.Data, C.Stride, len(C.Data), 1)
					case "GEMMPrepackedBatch":
						var pa *Prepacked
						if pa, err = Prepack(ctx, pool, opts, op.A, op.ta); err == nil {
							bs, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{TransB: op.tb, Alpha: alpha, B: op.B, Beta: beta, C: C}})
							pa.Release()
						}
					}
					if err == nil && errs != nil {
						err = errs[0]
					}
					if err != nil {
						t.Fatalf("%s, %d workers, %s: %v", name, pool.Workers(), e, err)
					}
					if bs != nil {
						st = &bs.Stats
					}
					return C, st
				}
				// refs holds the first call's bits per geometry: a plan and a
				// tiled operand tile a padded shape as its partners do not.
				refs := map[[4]int]*matrix.Dense{}
				geomOf := func(d uint, tm, tk, tn int) [4]int { return [4]int{int(d), tm, tk, tn} }
				for _, workers := range []int{1, 2, 4} {
					pool := pools[workers]
					for _, e := range []string{"GEMMCtx", "GEMMBatch", "GEMMBatchStrided", "GEMMPrepackedBatch"} {
						prepacked := e == "GEMMPrepackedBatch"
						if prepacked && cv == layout.ColMajor {
							continue
						}
						what := fmt.Sprintf("%s, %d workers, %s", name, workers, e)
						got, st := run(e, pool, in)
						ref := refs[geomOf(st.Depth, st.TileM, st.TileK, st.TileN)]
						if ref == nil {
							ref = got
							refs[geomOf(st.Depth, st.TileM, st.TileK, st.TileN)] = got
						}
						fits := st.PaddedM == m && st.PaddedK == k && st.PaddedN == n && 1<<st.Depth <= inPlaceSide
						if st.Blocks != 1 || fits != sh.inPlace {
							t.Fatalf("%s: %d blocks, %dx%dx%d padded on %d tiles a side (test premise)",
								what, st.Blocks, st.PaddedM, st.PaddedK, st.PaddedN, 1<<st.Depth)
						}
						if !matrix.Equal(got, ref, 0) {
							t.Errorf("%s: %g from the first call's bits", what, matrix.MaxAbsDiff(got, ref))
						}
						// Each twin packs its transposed operand: its bytes more,
						// and one segment fewer read where it lies.
						for _, tw := range []struct {
							op    operands
							bytes int64
						}{{twinA, int64(8 * m * k)}, {twinB, int64(8 * k * n)}} {
							if prepacked && tw.op.ta {
								continue
							}
							want, ts := run(e, pool, tw.op)
							if !matrix.Equal(want, got, 0) {
								t.Errorf("%s, transposed twin (A %v, B %v): %g from its bits", what, tw.op.ta, tw.op.tb, matrix.MaxAbsDiff(got, want))
							}
							if sh.inPlace && (ts.ConvertBytes-st.ConvertBytes != tw.bytes || st.PackDeferred-ts.PackDeferred != 1) {
								t.Errorf("%s, transposed twin (A %v, B %v): %d bytes converted, %d segments brought; twin %d, %d",
									what, tw.op.ta, tw.op.tb, st.ConvertBytes, st.PackDeferred, ts.ConvertBytes, ts.PackDeferred)
							}
						}
						direct := alpha == 1 && beta == 0
						switch {
						case !sh.inPlace && (st.PackDeferred != 0 || st.ConvertBytes == 0):
							t.Errorf("%s: %d segments brought, %d bytes converted; want a packing call", what, st.PackDeferred, st.ConvertBytes)
						case sh.inPlace && direct && (st.ConvertBytes != 0 || st.ConvertOut != 0):
							t.Errorf("%s: %d bytes converted, convert-out %v; want none", what, st.ConvertBytes, st.ConvertOut)
						case sh.inPlace && !direct && st.ConvertOut == 0:
							t.Errorf("%s: no convert-out; want C's epilogue", what)
						}
						if workers == 1 && direct && sh.inPlace && !prepacked && !raceEnabled {
							// Warm, with no collection to empty the buffer pool.
							restore := debug.SetGCPercent(-1)
							allocs := func(op operands) float64 { return testing.AllocsPerRun(10, func() { run(e, pool, op) }) }
							allocs(in)
							allocs(twinA)
							a, b := allocs(in), allocs(twinA)
							debug.SetGCPercent(restore)
							if a > b {
								t.Errorf("%s: %.0f allocations a call in place, %.0f packing A", what, a, b)
							}
						}
					}
				}
				if alpha != 1 || beta != 0 {
					continue
				}
				// C's twin: the product accumulated into a zeroed C plan,
				// never C itself.
				to := opts
				if cv == layout.ColMajor {
					to.Curve = layout.ZMorton
				}
				ta, err := Pack(ctx, pools[2], to, in.A)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := Pack(ctx, pools[2], to, in.B)
				if err != nil {
					t.Fatal(err)
				}
				tc, err := NewProduct(ta, tb)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := MulPrepacked(ctx, pools[2], to, tc, ta, tb); err != nil {
					t.Fatal(err)
				}
				want, err := tc.Unpack(ctx, pools[2])
				if err != nil {
					t.Fatal(err)
				}
				ta.Release()
				tb.Release()
				tc.Release()
				ref := refs[geomOf(ta.D, ta.TR, ta.TC, tb.TC)]
				if ref == nil && sh.inPlace {
					t.Fatalf("%s: Pack tiles %d×%d×%d at depth %d, no call did (test premise)", name, ta.TR, ta.TC, tb.TC, ta.D)
				}
				if ref != nil && !matrix.Equal(want, ref, 0) {
					t.Errorf("%s: %g from the bits of Pack + MulPrepacked + Unpack", name, matrix.MaxAbsDiff(want, ref))
				}
			}
		}
	}
}
