package core

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
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
		want := matrix.New(n, b)
		matrix.RefGEMM(false, false, 1, A, B, 0, want)
		got := matrix.New(n, b)
		stats, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pb, 0, got)
		pb.Release()
		if err != nil {
			t.Fatalf("stream %d: %v", stream, err)
		}
		if !matrix.Equal(got, want, tol(n, n, b)) {
			t.Errorf("stream %d: max diff %g", stream, matrix.MaxAbsDiff(got, want))
		}
		// The conversion the plans absorbed must not be charged to the
		// call: ConvertBytes counts only the C epilogue.
		if wantBytes := 8 * int64((pa.TR<<pa.D)*(pb.TC<<pb.D)); stats.ConvertBytes != wantBytes {
			t.Errorf("stream %d: ConvertBytes = %d, want %d (C epilogue only)",
				stream, stats.ConvertBytes, wantBytes)
		}
		if stats.PackReused != 2 {
			t.Errorf("stream %d: PackReused = %d, want 2", stream, stats.PackReused)
		}
	}
}

// TestPrepackPartnerDim: a plan prepacked with the PartnerDim hint
// splits into squat blocks sized for its future skinny partners, so a
// conforming stream pads its free dimension not at all — the geometry
// the serving benchmark depends on.
func TestPrepackPartnerDim(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(37))
	n, b := 256, 32
	A := matrix.Random(n, n, rng)
	opts := Options{Curve: layout.ZMorton, Alg: Standard}
	paOpts := opts
	paOpts.PartnerDim = b
	pa, err := Prepack(context.Background(), pool, paOpts, A, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	if len(pa.RSegs) < 2 {
		t.Fatalf("PartnerDim=%d plan did not split %dx%d (segments: %d)", b, n, n, len(pa.RSegs))
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
	matrix.RefGEMM(false, false, 1, A, B, 0, want)
	got := matrix.New(n, b)
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, pb, 0, got); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, tol(n, n, b)) {
		t.Errorf("max diff %g", matrix.MaxAbsDiff(got, want))
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
	C := matrix.New(400, 70)
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pw, ps, 0, C); err == nil {
		t.Error("non-conforming plans not rejected")
	}

	// Curve mismatch.
	ph, err := Prepack(context.Background(), pool, Options{Curve: layout.Hilbert}, squat, false)
	if err != nil {
		t.Fatal(err)
	}
	C2 := matrix.New(70, 70)
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, ps, ph, 0, C2); err == nil {
		t.Error("curve mismatch not rejected")
	}

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
	if _, err := GEMMPrepacked(context.Background(), pool, opts, 1, pa, ps, 0, C2); err == nil {
		t.Error("released plan not rejected")
	}
	if _, err := pa.Transposed(context.Background(), pool); err == nil {
		t.Error("Transposed of released plan not rejected")
	}
	pw.Release()
	if _, err := PrepackConforming(context.Background(), pool, opts, matrix.Random(70, 10, rng), false, pw); err == nil {
		t.Error("PrepackConforming against released plan not rejected")
	}
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
	// Three buffers a call (A, B, the C tile), all of one size class.
	slack := poolSlack(1)
	var hits, misses int
	for i := 0; i < 3+4*(slack+1); i++ {
		stats, err := GEMM(pool, opts, false, false, 1, A, B, 0, C)
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
