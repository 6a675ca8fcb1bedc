package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tile"
)

// TestGEMMPrepackedMatchesRef: a prepacked multiplication must agree
// with the reference for every recursive curve, trans fold, and β —
// squat operands prepacked independently.
func TestGEMMPrepackedMatchesRef(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(31))
	m, k, n := 40, 24, 56
	for _, cv := range layout.RecursiveCurves {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, beta := range []float64{0, 1, 0.5} {
					A := matrix.Random(m, k, rng)
					if ta {
						A = matrix.Random(k, m, rng)
					}
					B := matrix.Random(k, n, rng)
					if tb {
						B = matrix.Random(n, k, rng)
					}
					opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
					pa, err := Prepack(context.Background(), pool, opts, A, ta)
					if err != nil {
						t.Fatalf("%v: Prepack A: %v", cv, err)
					}
					pb, err := Prepack(context.Background(), pool, opts, B, tb)
					if err != nil {
						t.Fatalf("%v: Prepack B: %v", cv, err)
					}

					C := matrix.Random(m, n, rng)
					want := C.Clone()
					matrix.RefGEMM(ta, tb, -1.25, A, B, beta, want)
					got := C.Clone()
					if _, err := GEMMPrepacked(context.Background(), pool, opts, -1.25, pa, pb, beta, got); err != nil {
						t.Fatalf("%v ta=%v tb=%v beta=%g: %v", cv, ta, tb, beta, err)
					}
					if !matrix.Equal(got, want, tol(m, k, n)) {
						t.Errorf("%v ta=%v tb=%v beta=%g: max diff %g",
							cv, ta, tb, beta, matrix.MaxAbsDiff(got, want))
					}
					pa.Release()
					pb.Release()
				}
			}
		}
	}
}

// TestGEMMPrepackedServingShape: the north-star pattern — one squat
// prepacked A, a lean streaming B packed conforming to it — must
// conform by construction and match a fresh GEMM of the same operands.
// (Independent Prepacks of these shapes need NOT conform: the default
// config's micro-alignment preference picks depth 1 for 96×24 but
// depth 2 for 96×96, which is exactly why PrepackConforming exists.)
func TestGEMMPrepackedServingShape(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(32))
	n, b := 96, 24
	A := matrix.Random(n, n, rng)
	opts := Options{Curve: layout.Hilbert, Alg: Standard}
	pa, err := Prepack(context.Background(), pool, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	for stream := 0; stream < 3; stream++ {
		B := matrix.Random(n, b, rng)
		pb, err := PrepackConforming(context.Background(), pool, opts, B, false, pa)
		if err != nil {
			t.Fatalf("stream %d: %v", stream, err)
		}
		// The conversion the plans absorbed must not be charged to the
		// call: ConvertBytes counts only the C epilogue. The partner reads
		// the one-block plan's four quadrants, the 2×2×1 blocks of a direct
		// GEMM of these shapes, so it is not a product of one block, which
		// would go into C in place at β = 0, α = 1.
		C0 := matrix.Random(n, b, rng)
		for _, beta := range []float64{0, 0.5} {
			want, got := C0.Clone(), C0.Clone()
			matrix.RefGEMM(false, false, 1, A, B, beta, want)
			stats, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pb, beta, got)
			if err != nil {
				t.Fatalf("stream %d: %v", stream, err)
			}
			if !matrix.Equal(got, want, tol(n, n, b)) {
				t.Errorf("stream %d, beta %g: max diff %g", stream, beta, matrix.MaxAbsDiff(got, want))
			}
			wantBytes := 8 * int64((pa.TR<<pa.D)*(pb.TC<<pb.D))
			if stats.Blocks != 4 || stats.Depth != pa.D-1 {
				t.Errorf("stream %d, beta %g: %d products at depth %d, want 4 at %d", stream, beta, stats.Blocks, stats.Depth, pa.D-1)
			}
			if stats.ConvertBytes != wantBytes {
				t.Errorf("stream %d, beta %g: ConvertBytes = %d, want %d (C epilogue only)",
					stream, beta, stats.ConvertBytes, wantBytes)
			}
			if stats.PackReused != 2*stats.Blocks {
				t.Errorf("stream %d, beta %g: PackReused = %d, want %d", stream, beta, stats.PackReused, 2*stats.Blocks)
			}
		}
		// The partner, narrower than the plan's tiles, is stored as
		// column-major panels under the plan's curve, and reads, unpacks
		// and transposes as a curve plan does.
		if pb.hdr.Curve != layout.ColMajor || pb.Curve != layout.Hilbert {
			t.Fatalf("stream %d: partner stored as %v under %v, want panels under Hilbert (test premise)", stream, pb.hdr.Curve, pb.Curve)
		}
		pbt, err := pb.Transposed(context.Background(), pool)
		if err != nil {
			t.Fatal(err)
		}
		if bt, err := pbt.Unpack(context.Background(), pool); err != nil || !matrix.Equal(bt, B.Transpose(), 0) || pb.At(n-1, b-1) != B.At(n-1, b-1) {
			t.Errorf("stream %d: a panel plan's At, Unpack or Transposed is not B's (%v)", stream, err)
		}
		pbt.Release()
		pb.Release()
	}
}

// TestPrepackPartnerDim: a plan prepacked with no word of its partners
// serves a skinny one through the quadrants of its blocks — the 256²
// plan is one depth-3 block, its 32-wide partner reads it at depth 2 —
// so a conforming stream pads its free dimension not at all, and runs
// the tiles and blocks a direct GEMM of the two operands runs.
func TestPrepackPartnerDim(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(37))
	n, b := 256, 32
	A := matrix.Random(n, n, rng)
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	pa, err := Prepack(context.Background(), pool, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	if len(pa.RSegs) != 1 || len(pa.CSegs) != 1 {
		t.Fatalf("a %dx%d plan cut into %dx%d blocks, want one", n, n, len(pa.RSegs), len(pa.CSegs))
	}
	B := matrix.Random(n, b, rng)
	pb, err := PrepackConforming(context.Background(), pool, opts, B, false, pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	if padded := pb.TC << pb.D; padded != b {
		t.Errorf("conforming stream pads its free dimension to %d, want %d (no padding)", padded, b)
	}
	want := matrix.New(n, b)
	direct, err := GEMMCtx(context.Background(), pool, opts, false, false, 1, A, B, 0, want)
	if err != nil {
		t.Fatal(err)
	}
	got := matrix.New(n, b)
	st, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pb, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != direct.Blocks || st.Depth != direct.Depth || st.TileM != direct.TileM || st.TileK != direct.TileK || st.TileN != direct.TileN {
		t.Errorf("plan runs %d blocks of %dx%dx%d tiles at depth %d, a direct GEMM %d of %dx%dx%d at depth %d",
			st.Blocks, st.TileM, st.TileK, st.TileN, st.Depth, direct.Blocks, direct.TileM, direct.TileK, direct.TileN, direct.Depth)
	}
	if !matrix.Equal(got, want, 0) {
		t.Errorf("max diff %g from the direct GEMM", matrix.MaxAbsDiff(got, want))
	}

	// A 240² plan on forced 4-wide tiles is 256 padded at depth 6; its
	// 1-wide partner's split tiles at depth 1: level-5 quadrants of 8, of
	// which the last two a side lie wholly in the padding and are left
	// out, so it descends all 5 levels to 30 quadrants a side.
	A = matrix.Random(240, 240, rng)
	pf, err := Prepack(context.Background(), pool, Options{Curve: layout.ZMorton, ForceTile: 4}, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Release()
	B = matrix.Random(240, 1, rng)
	pt, err := PrepackConforming(context.Background(), pool, opts, B, false, pf)
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Release()
	want, got = matrix.New(240, 1), matrix.New(240, 1)
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pf, pt, 0, got); err != nil || pf.D-pt.D != 5 || len(pt.RSegs) != 30 {
		t.Fatalf("descent %d from depth %d to %d quadrants: %v", pf.D-pt.D, pf.D, len(pt.RSegs), err)
	}
	if !matrix.Equal(got, want, tol(240, 240, 1)) {
		t.Errorf("descent past the padding: max diff %g", matrix.MaxAbsDiff(got, want))
	}
}

// TestPrepackedTransposedGram: deriving the second operand with
// Transposed must conform by construction — including across wide/lean
// segment splits — and compute the Gram products correctly.
func TestPrepackedTransposedGram(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(33))
	for _, cv := range []layout.Curve{layout.ZMorton, layout.GrayMorton} {
		for _, dims := range [][2]int{
			{30, 30},  // squat: single segment
			{20, 150}, // lean source: k splits, exercising the accumulation loop
			{150, 20}, // wide source: m and n split, exercising the block grid
		} {
			r, c := dims[0], dims[1]
			A := matrix.Random(r, c, rng)
			opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
			pa, err := Prepack(context.Background(), pool, opts, A, false)
			if err != nil {
				t.Fatalf("%v %v: %v", cv, dims, err)
			}
			pat, err := pa.Transposed(context.Background(), pool)
			if err != nil {
				t.Fatalf("%v %v: Transposed: %v", cv, dims, err)
			}
			if len(pa.RSegs) != len(pat.CSegs) || len(pa.CSegs) != len(pat.RSegs) {
				t.Fatalf("%v %v: Transposed segment mismatch", cv, dims)
			}

			// C = A·Aᵀ + 0.5·C, the SYRK shape served by one conversion.
			C := matrix.Random(r, r, rng)
			want := C.Clone()
			matrix.RefGEMM(false, true, 1, A, A, 0.5, want)
			got := C.Clone()
			stats, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pat, 0.5, got)
			if err != nil {
				t.Fatalf("%v %v: %v", cv, dims, err)
			}
			if !matrix.Equal(got, want, tol(r, c, r)) {
				t.Errorf("%v %v: max diff %g", cv, dims, matrix.MaxAbsDiff(got, want))
			}
			wantProducts := len(pa.RSegs) * len(pat.CSegs) * len(pa.CSegs)
			if stats.Blocks != wantProducts || stats.PackReused != 2*wantProducts {
				t.Errorf("%v %v: Blocks=%d PackReused=%d, want %d and %d",
					cv, dims, stats.Blocks, stats.PackReused, wantProducts, 2*wantProducts)
			}
			pa.Release()
			pat.Release()
		}
	}
}

// TestPrepackValidation covers the rejection paths: canonical layouts,
// non-conforming plans, released plans, and shape mismatches.
func TestPrepackValidation(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(34))
	if _, err := Prepack(context.Background(), pool, Options{Curve: layout.ColMajor}, matrix.Random(8, 8, rng), false); err == nil {
		t.Error("ColMajor Prepack not rejected")
	}

	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	// A wide operand's split inner tiling cannot conform with an
	// independently prepacked squat operand.
	wide := matrix.Random(400, 70, rng)
	squat := matrix.Random(70, 70, rng)
	pw, err := Prepack(context.Background(), pool, opts, wide, false)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Prepack(context.Background(), pool, opts, squat, false)
	if err != nil {
		t.Fatal(err)
	}
	// Every refusal below is a caller's mistake: ErrDimension, and the
	// three geometry ones are conformPlans' own.
	refused := func(what, says string, err error) {
		t.Helper()
		if !errors.Is(err, ErrDimension) || !strings.Contains(err.Error(), says) {
			t.Errorf("%s: err = %v, want ErrDimension saying %q", what, err, says)
		}
	}
	C := matrix.New(400, 70)
	_, err = GEMMPrepacked(context.Background(), pool, opts, 1, pw, ps, 0, C)
	refused("plans on other depths", "do not conform on the inner dimension", err)
	// Plans on one geometry that cut the inner dimension differently.
	hdr := Tiled{Curve: layout.ZMorton, D: 1, TR: 8, TC: 8}
	whole, halves := []tile.Seg{{Len: 16}}, []tile.Seg{{Len: 8}, {Off: 8, Len: 8}}
	_, err = GEMMPrepacked(context.Background(), pool, opts, 1, newPlan(hdr, whole, whole), newPlan(hdr, halves, whole), 0, matrix.New(16, 16))
	refused("plans cut differently", "split the inner dimension differently", err)

	// Curve mismatch.
	ph, err := Prepack(context.Background(), pool, Options{Curve: layout.Hilbert}, squat, false)
	if err != nil {
		t.Fatal(err)
	}
	C2 := matrix.New(70, 70)
	_, err = GEMMPrepacked(context.Background(), pool, opts, 1, ps, ph, 0, C2)
	refused("curve mismatch", "disagree on layout", err)

	// Wrong C shape.
	pa, _ := Prepack(context.Background(), pool, opts, squat, false)
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, ps, 0, matrix.New(70, 69)); err == nil {
		t.Error("C shape mismatch not rejected")
	}

	// PrepackConforming: inner-dimension mismatch and released target.
	if _, err := PrepackConforming(context.Background(), pool, opts, matrix.Random(69, 10, rng), false, ps); err == nil {
		t.Error("PrepackConforming with wrong inner dimension not rejected")
	}
	// The wide plan splits k into several row segments; a conforming
	// operand adopts them and multiplies cleanly despite the split.
	pc, err := PrepackConforming(context.Background(), pool, opts, matrix.Random(70, 12, rng), false, pw)
	if err != nil {
		t.Errorf("PrepackConforming against split plan: %v", err)
	} else {
		if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pw, pc, 0, matrix.New(400, 12)); err != nil {
			t.Errorf("GEMMPrepacked with conforming plan: %v", err)
		}
		pc.Release()
	}

	// Released plan.
	pa.Release()
	_, err = GEMMPrepacked(context.Background(), pool, opts, 1, pa, ps, 0, C2)
	refused("GEMMPrepacked with a released plan", "released plan", err)
	_, err = pa.Transposed(context.Background(), pool)
	refused("Transposed of a released plan", "released plan", err)
	pw.Release()
	_, err = PrepackConforming(context.Background(), pool, opts, matrix.Random(70, 10, rng), false, pw)
	refused("PrepackConforming against a released plan", "released plan", err)
	ps.Release()
	ph.Release()
}

// poolSlack is how many buffer-pool misses a warm, leak-free run of
// calls may still report. sync.Pool keeps a P's latest Put in a private
// slot no other P can reach, so a goroutine that has moved to a P whose
// slot is empty allocates once more: at most once per other P and size
// class, however many calls follow — whereas a buffer the driver fails
// to recycle misses on every call. Tests make several times as many
// calls as the slack allows misses.
func poolSlack(classes int) int { return (runtime.GOMAXPROCS(0) - 1) * classes }

// TestPlanOfAllocations: planning a direct call reads A through the plan
// Prepack would make of it, built as a value on the split's own segments
// where its partner is at least as wide as A's shorter side: 6
// allocations for an in-place 64³, 9 for the split 1024²·1024×48, whose
// thin partner has A's segments cut again.
func TestPlanOfAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime bookkeeping allocations")
	}
	o := (&Options{}).withDefaults()
	for _, tc := range []struct {
		m, k, n int
		most    float64
	}{{64, 64, 64, 6}, {1024, 1024, 48, 9}} {
		if a := testing.AllocsPerRun(100, func() { planOf(o, 2, given{}, tc.m, tc.k, tc.n) }); a > tc.most {
			t.Errorf("planOf %dx%dx%d: %.0f allocations, want at most %.0f", tc.m, tc.k, tc.n, a, tc.most)
		}
	}
}

// BenchmarkPlanOf times the planner of a direct call: the split, the plan
// of its A and the geometry.
func BenchmarkPlanOf(b *testing.B) {
	o := (&Options{}).withDefaults()
	for _, sh := range [][3]int{{32, 32, 32}, {64, 64, 64}, {1024, 1024, 48}, {1024, 1024, 8}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			for range b.N {
				planOf(o, 2, given{}, sh[0], sh[1], sh[2])
			}
		})
	}
}

// TestPrepackedSteadyStateAllocBytes pins the recycling acceptance
// criterion: once warm, a repeated prepacked multiplication allocates a
// negligible, bounded number of bytes per call — the packed buffers,
// the C tile, and the arena all come from pools. Measured as allocated
// bytes (not object counts: small fixed-size control structures like
// the returned Stats are fine; re-allocating megabyte buffers is not).
// GC is disabled during the measurement so sync.Pool eviction cannot
// produce a false failure.
func TestPrepackedSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; steady state unreachable")
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(35))
	n := 256
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	opts := Options{Curve: layout.ZMorton, Alg: Standard, KernelName: "packed8x4"}
	pa, err := Prepack(context.Background(), pool, opts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	pb, err := Prepack(context.Background(), pool, opts, B, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()

	call := func() *Stats {
		stats, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pb, 0, C)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	// Warm the buffer pool, arena pool, and coordinate caches.
	call()
	call()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The one pooled buffer of a call is its C tile, 8·256² = 512 KiB.
	slack, tileBytes := poolSlack(1), int64(8*n*n)
	runs := 4 * (slack + 1)
	var misses int
	for i := 0; i < runs; i++ {
		misses += call().PoolMisses
	}
	runtime.ReadMemStats(&after)
	perCall := (int64(after.TotalAlloc-before.TotalAlloc) - int64(misses)*tileBytes) / int64(runs)

	if misses > slack {
		t.Errorf("steady state: %d tiled-buffer pool misses in %d calls, want at most %d", misses, runs, slack)
	}
	// Re-allocating any packed buffer per call would blow far past this
	// bound.
	if perCall > 64<<10 {
		t.Errorf("steady state allocates %d bytes/call beyond its pool misses, want < 64KiB", perCall)
	}
}

// TestGEMMSteadyStatePoolHits: the per-call GEMM path (not just the
// prepacked one) must also reuse its packed buffers once warm.
func TestGEMMSteadyStatePoolHits(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; steady state unreachable")
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(36))
	n := 128
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	opts := Options{Curve: layout.Hilbert, Alg: Standard, KernelName: "packed8x4"}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two buffers a call, of one size class: A and B, stored transposed so
	// that they pack (a 128³ product is one small block, which reads an
	// untransposed operand in place and takes a β = 0 product into C).
	slack := poolSlack(1)
	var hits, misses int
	for i := 0; i < 3+4*(slack+1); i++ {
		stats, err := GEMM(pool, opts, true, true, 1, A, B, 0, C)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 3 { // warm
			hits, misses = hits+stats.PoolHits, misses+stats.PoolMisses
		}
	}
	if misses > slack {
		t.Errorf("steady-state GEMM: %d pool misses (%d hits), want at most %d", misses, hits, slack)
	}
	if hits == 0 {
		t.Error("steady-state GEMM: no pool hits recorded")
	}
}
