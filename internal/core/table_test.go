package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/leaf"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// TestAlgTables is the Brent-equation gate: every registered coefficient
// table must be an exact bilinear algorithm for its ⟨M,K,N⟩ shape. The
// `make algtable-check` target runs exactly this test.
func TestAlgTables(t *testing.T) {
	if err := VerifyTables(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tb := range Tables() {
		if seen[tb.Name] {
			t.Errorf("duplicate table name %q", tb.Name)
		}
		seen[tb.Name] = true
		// Fast is a property of the table: fewer products than the
		// classical M·K·N. Standard8 is the one registered table without it.
		if tb.fast() == (tb.Name == "standard8") {
			t.Errorf("table %s: rank %d against classical %d, fast() = %v",
				tb.Name, tb.R, tb.M*tb.K*tb.N, tb.fast())
		}
	}
	if tableOf(Standard).fast() {
		t.Error("Standard, which has no table, is fast")
	}
	for _, want := range []string{
		"standard8", "strassen", "winograd", "strassen-lowmem", "fast-3x2x3", "fast-4x2x4", "laderman-3x3x3",
	} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

// TestAlgNames: Figure 1(a)'s Standard8 and the paper's three fast
// algorithms are registry entries — the four ⟨2,2,2⟩ tables — under
// their historical ids and names, each listed once.
func TestAlgNames(t *testing.T) {
	for alg, name := range map[Alg]string{Standard8: "standard8", Strassen: "strassen", Winograd: "winograd", StrassenLowMem: "strassen-lowmem"} {
		if tb := tableOf(alg); tb == nil || !tb.quad() || alg.String() != name {
			t.Errorf("Alg %d: table %v, name %q, want a ⟨2,2,2⟩ table named %q", alg, tb, alg.String(), name)
		}
	}
	if Standard != 0 || Standard8 != 1 || Strassen != 2 || Algs[0] != Standard || Algs[1] != Standard8 {
		t.Errorf("ids moved: Standard %d, Standard8 %d, Strassen %d; Algs opens %v", Standard, Standard8, Strassen, Algs[:2])
	}
	if tb := tableOf(StrassenLowMem); !tb.depthFirst || tableOf(Strassen).depthFirst {
		t.Error("StrassenLowMem, and only it, runs Strassen's table depth-first")
	}
	seen := map[string]bool{}
	for _, name := range AlgNames() {
		if seen[name] {
			t.Errorf("AlgNames lists %q twice", name)
		}
		seen[name] = true
		if a, err := ParseAlg(name); err != nil || a.String() != name {
			t.Errorf("ParseAlg(%q) = %v, %v", name, a, err)
		}
	}
	if len(seen) != len(Algs)+1 {
		t.Errorf("AlgNames lists %d names for %d algorithms and auto", len(seen), len(Algs))
	}
}

// TestTablePasses pins the pass counts the cutoff rule and WorkSpan
// price a level with, against the paper's two schedules: 8
// pre-additions and the U2/U3 pair fused, 9 accumulates into C for
// Winograd; 10 pre-additions and 12 accumulates for Strassen; 7
// product zero-fills each.
func TestTablePasses(t *testing.T) {
	for alg, want := range map[Alg][3]int{Winograd: {10, 9, 7}, Strassen: {10, 12, 7}, StrassenLowMem: {10, 12, 7}} {
		n3, n2, zero := tableOf(alg).passes()
		if got := [3]int{n3, n2, zero}; got != want {
			t.Errorf("%v: passes %v, want %v", alg, got, want)
		}
	}
}

// tableAlgList returns the registered table algorithm ids.
func tableAlgList() []Alg {
	return append([]Alg(nil), tableAlgs...)
}

// TestTableGEMMDifferential drives every table algorithm against the
// naive reference over rectangular shapes, fringe sizes, and β values
// on every layout. The shapes include dimensions aligned to the table
// grids (so the mixed-radix geometry engages on canonical storage) and
// deliberately misaligned fringes that force padding.
func TestTableGEMMDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))
	shapes := [][3]int{
		{48, 32, 48},  // 3·2·3-aligned with testTile
		{96, 64, 96},  // two table levels
		{108, 72, 96}, // laderman-friendly m, rectangular
		{61, 35, 77},  // fringe everywhere
		{128, 16, 90}, // flat: small k
		{24, 120, 24}, // deep: large k
	}
	for _, alg := range tableAlgList() {
		for _, cv := range mulCurves {
			for _, sh := range shapes {
				for _, beta := range []float64{0, 1, -0.5} {
					m, k, n := sh[0], sh[1], sh[2]
					A := matrix.Random(m, k, rng)
					B := matrix.Random(k, n, rng)
					C := matrix.Random(m, n, rng)
					want := C.Clone()
					matrix.RefGEMM(false, false, 1.5, A, B, beta, want)

					got := C.Clone()
					opts := Options{Curve: cv, Alg: alg, Tile: testTile}
					if _, err := GEMM(pool, opts, false, false, 1.5, A, B, beta, got); err != nil {
						t.Fatalf("%v/%v %v beta=%g: %v", alg, cv, sh, beta, err)
					}
					if !matrix.Equal(got, want, tol(m, k, n)) {
						t.Errorf("%v/%v %v beta=%g: max diff %g",
							alg, cv, sh, beta, matrix.MaxAbsDiff(got, want))
					}
				}
			}
		}
	}
}

// TestTableResidualGrowth bounds the numerical error of each table
// algorithm relative to the naive sum. Fast bilinear algorithms trade
// a few digits for flops; the factor below is generous for one or two
// recursion levels yet catches a wrong table immediately (a single
// sign error produces O(1) relative error, ~1e10 beyond this bound).
func TestTableResidualGrowth(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(4))
	m, k, n := 96, 96, 96
	A := matrix.Random(m, k, rng)
	B := matrix.Random(k, n, rng)
	want := matrix.New(m, n)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	var wantNorm float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if v := math.Abs(want.At(i, j)); v > wantNorm {
				wantNorm = v
			}
		}
	}
	for _, alg := range tableAlgList() {
		C := matrix.New(m, n)
		if _, err := GEMM(pool, Options{Alg: alg, Tile: testTile}, false, false, 1, A, B, 0, C); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		rel := matrix.MaxAbsDiff(C, want) / wantNorm
		// ~50·k·ε leaves an order of magnitude of slack over the
		// observed growth at this size while staying ~8 orders below
		// any table error.
		if bound := 50 * float64(k) * 2.2e-16; rel > bound {
			t.Errorf("%v: relative residual %g exceeds bound %g", alg, rel, bound)
		}
	}
}

// TestChooseTableGeom checks the mixed-radix geometry chooser: grids
// must be M^l·2^d with every tile inside [TMin, TMax], and the serving
// shape the daemon auto-selects for must admit a laderman geometry.
func TestChooseTableGeom(t *testing.T) {
	cfg := tile.DefaultConfig
	lad := tableOf(TableLaderman333)
	g, ok := chooseTableGeom(lad, cfg, 1296, 864, 1296)
	if !ok {
		t.Fatal("no laderman geometry for 1296x864x1296")
	}
	pm, pk, pn := 1, 1, 1
	for i := 0; i < g.l; i++ {
		pm, pk, pn = pm*lad.M, pk*lad.K, pn*lad.N
	}
	pm, pk, pn = pm<<g.d, pk<<g.d, pn<<g.d
	if g.gm != pm || g.gk != pk || g.gn != pn {
		t.Fatalf("grid %dx%dx%d is not M^l·2^d = %dx%dx%d (l=%d d=%d)",
			g.gm, g.gk, g.gn, pm, pk, pn, g.l, g.d)
	}
	for _, tl := range []int{g.tm, g.tk, g.tn} {
		if tl < cfg.TMin || tl > cfg.TMax {
			t.Fatalf("tile %d outside [%d, %d]", tl, cfg.TMin, cfg.TMax)
		}
	}
	// A shape no table level fits (tiles would land outside the range
	// for every l ≥ 1) must report ok=false.
	if _, ok := chooseTableGeom(lad, cfg, 20, 20, 20); ok {
		t.Error("expected no geometry for a 20x20x20 problem at default tiles")
	}
}

// TestSelectAlg pins the AlgAuto policy on injected rules: Standard
// unless a fast level survives the cutoff, Winograd otherwise, never a
// rectangular table; explicit choices pass through untouched.
func TestSelectAlg(t *testing.T) {
	auto := Options{Alg: AlgAuto, Curve: layout.ZMorton}
	// plan is what the driver would run an n³ call on.
	plan := func(o Options, n int) *plan {
		pl, err := planOf(o.withDefaults(), 0, given{}, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	t.Run("scalar leaf", func(t *testing.T) {
		useCutoff(t, 1)
		for _, n := range []int{64, 256, 1024} {
			if got := ResolveAlg(auto, n, n, n); got != Winograd {
				t.Errorf("n=%d: got %v, want Winograd", n, got)
			}
		}
		if l := fastLevels(Winograd, 32, 32, 32, 1); l != 5 {
			t.Errorf("32-tile grid at cutoff 1 runs %d fast levels, want 5", l)
		}
	})

	t.Run("avx2 leaf", func(t *testing.T) {
		useBalance(t, avx2Class)
		if pl := plan(auto, 1024); pl.alg != Standard || pl.cutoff != 32 || ResolveAlg(auto, 1024, 1024, 1024) != Standard {
			t.Errorf("1024³: got %v at cutoff %d, want Standard at 32", pl.alg, pl.cutoff)
		}
		if pl := plan(auto, 4096); pl.alg != Winograd || fastLevels(pl.alg, pl.g.gm, pl.g.gk, pl.g.gn, pl.cutoff) < 1 || ResolveAlg(auto, 4096, 4096, 4096) != Winograd {
			t.Errorf("4096³: got %v on a %d-tile grid at cutoff %d, want Winograd with a fast level", pl.alg, pl.g.gm, pl.cutoff)
		}
		// Never a fast algorithm with no fast level, on any storage or
		// shape; once n is large enough for one, every larger n has one.
		for _, cv := range []layout.Curve{layout.ColMajor, layout.Hilbert} {
			o, fast := auto, false
			o.Curve = cv
			for n := 24; n <= 6000; n += n/7 + 1 {
				pl := plan(o, n)
				got, s, cut := ResolveAlg(o, n, n, n), pl.g.gm, pl.cutoff
				if (got == Winograd) != (s > cut) || got != Winograd && got != Standard {
					t.Errorf("%v n=%d: got %v on a %d-tile grid at cutoff %d", cv, n, got, s, cut)
				}
				if fast && got != Winograd {
					t.Errorf("%v n=%d: back to %v after a smaller n ran Winograd", cv, n, got)
				}
				fast = got == Winograd
			}
			if got := ResolveAlg(o, 1296, 864, 1296); got != Standard {
				t.Errorf("%v 1296x864x1296: got %v, want Standard", cv, got)
			}
		}
	})

	// The default cutoff is priced on the passes of the table that runs
	// the levels it bounds: Strassen's 10/12/7 are a tenth more bytes than
	// Winograd's 10/9/7, which a balance just under a power of two shows;
	// Auto and the rectangular tables run Winograd's levels.
	t.Run("own passes", func(t *testing.T) {
		useBalance(t, 4.4)
		for alg, want := range map[Alg]int{Winograd: 32, AlgAuto: 32, TableLaderman333: 32, Strassen: 64, StrassenLowMem: 64} {
			o := Options{Alg: alg}
			if o.settle(leaf.Impl{}, 128, 32, 32, 32); o.FastCutoff != want {
				t.Errorf("%v: cutoff %d on 32³ tiles at balance 4.4, want %d", alg, o.FastCutoff, want)
			}
		}
	})

	t.Run("explicit", func(t *testing.T) {
		useBalance(t, avx2Class)
		for _, alg := range Algs {
			o := auto
			o.Alg = alg
			if got := ResolveAlg(o, 4096, 4096, 4096); got != alg {
				t.Errorf("explicit %v resolved to %v", alg, got)
			}
		}
		for _, fc := range []int{1, 8} {
			for _, alg := range []Alg{AlgAuto, Strassen, Winograd} {
				o := Options{Alg: alg, FastCutoff: fc}
				o.settle(leaf.Impl{}, 32, 32, 32, 32)
				if want := map[bool]Alg{true: Winograd, false: alg}[alg == AlgAuto]; o.FastCutoff != fc || o.Alg != want {
					t.Errorf("%v FastCutoff=%d settled to %v at %d", alg, fc, o.Alg, o.FastCutoff)
				}
			}
			o := Options{Alg: AlgAuto, FastCutoff: fc}
			if o.settle(leaf.Impl{}, fc, 32, 32, 32); o.Alg != Standard {
				t.Errorf("auto on a %d-tile grid at FastCutoff=%d: got %v, want Standard", fc, fc, o.Alg)
			}
		}
		// An algorithm that is not fast has no cutoff: none is resolved,
		// and one the caller set is ignored.
		for _, alg := range []Alg{Standard, Standard8} {
			for _, fc := range []int{0, 4} {
				o := Options{Alg: alg, FastCutoff: fc}
				if o.settle(leaf.Impl{}, 64, 32, 32, 32); o.FastCutoff != 0 || o.Alg != alg {
					t.Errorf("%v FastCutoff=%d settled to %v at cutoff %d, want no cutoff", alg, fc, o.Alg, o.FastCutoff)
				}
				if l := fastLevels(alg, 64, 64, 64, fc); l != 0 {
					t.Errorf("%v runs %d fast levels on a 64-tile grid at cutoff %d", alg, l, fc)
				}
			}
		}
	})
}

// hashBits is FNV-1a over the bit patterns of m's elements, column by
// column.
func hashBits(m *matrix.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.At(i, j)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fmaProbe's sum is zero when the product is rounded before the add and
// -2⁻⁶⁰ when the compiler fuses the two (arm64, GOAMD64=v3).
var fmaProbe = [3]float64{1 + 0x1p-30, 1 - 0x1p-30, -1}

// TestStandard8TableBits: the ⟨2,2,2⟩ rank-8 table is the hand-written
// Figure 1(a) recursion it replaced, bit for bit. The hashes were
// recorded at the last commit that had exec.std8 (87a010a), with the
// pure-Go "naive" leaf so they hold on any host whose compiler keeps
// multiply and add apart: one per shape, because that recursion already
// gave every layout, worker count and serial cutoff the same bits —
// each C block receives A_i1·B_1l and then A_i2·B_2l, which is the order
// of the table's W rows breadth-first and of its products depth-first.
// A FastCutoff changes nothing: Standard8 has no cutoff to hand over at,
// and says so in Stats.
func TestStandard8TableBits(t *testing.T) {
	if fmaProbe[0]*fmaProbe[1]+fmaProbe[2] != 0 {
		t.Skip("this build fuses multiply-add; the hashes were recorded without")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		m, k, n int
		want    uint64
	}{{256, 256, 256, 0x9d97c05f46c81730}, {200, 136, 72, 0x58213208965a7a90}} {
		rng := rand.New(rand.NewSource(int64(tc.m + tc.k + tc.n)))
		A, B, C := matrix.Random(tc.m, tc.k, rng), matrix.Random(tc.k, tc.n, rng), matrix.Random(tc.m, tc.n, rng)
		for _, workers := range []int{1, 4} {
			pool := sched.NewPool(workers)
			for _, cv := range []layout.Curve{layout.ZMorton, layout.GrayMorton, layout.Hilbert, layout.ColMajor} {
				for _, cut := range []int{1, 4} {
					for _, fc := range []int{0, 3} {
						got := C.Clone()
						opts := Options{Curve: cv, Alg: Standard8, KernelName: "naive", Tile: testTile, SerialCutoff: cut, FastCutoff: fc}
						st, err := GEMMCtx(ctx, pool, opts, false, false, 0.75, A, B, 0.5, got)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%dx%dx%d %v, %d workers, SerialCutoff %d, FastCutoff %d", tc.m, tc.k, tc.n, cv, workers, cut, fc)
						if h := hashBits(got); h != tc.want {
							t.Errorf("%s: result hash %#x, exec.std8's was %#x", name, h, tc.want)
						}
						if st.Alg != Standard8 || st.FastCutoff != 0 || st.FastLevels != 0 {
							t.Errorf("%s: ran %v with cutoff %d and %d fast levels, want standard8 with neither", name, st.Alg, st.FastCutoff, st.FastLevels)
						}
					}
				}
			}
			pool.Close()
		}
	}
}
