package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestUnpackAccumulateDifferential pins the fused epilogue against its
// decomposed form: dst += α·unpack(t) must equal Unpack into a scratch
// followed by an explicit scaled accumulate, bit for bit (same values,
// same order within each column), across curves, tile fringes, and the
// α values the driver specializes.
func TestUnpackAccumulateDifferential(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(21))
	for _, cv := range layout.RecursiveCurves {
		for _, dims := range [][4]int{
			{16, 16, 4, 4},  // exact fit
			{15, 13, 4, 4},  // fringe in both dims
			{10, 20, 3, 5},  // rectangular tiles
			{1, 1, 4, 4},    // single element
			{33, 17, 8, 16}, // asymmetric
		} {
			rows, cols, tr, tc := dims[0], dims[1], dims[2], dims[3]
			d := uint(0)
			for (tr<<d) < rows || (tc<<d) < cols {
				d++
			}
			src := matrix.Random(rows, cols, rng)
			tl := NewTiled(cv, d, tr, tc, rows, cols)
			if err := tl.Pack(context.Background(), pool, src, false, 1); err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0, 1, 0.5, -2.25} {
				dst0 := matrix.Random(rows, cols, rng)

				got := dst0.Clone()
				if err := tl.UnpackAccumulate(context.Background(), pool, got, alpha, 1); err != nil {
					t.Fatal(err)
				}

				scratch, err := asPlan(tl).Unpack(context.Background(), pool)
				if err != nil {
					t.Fatal(err)
				}
				want := dst0.Clone()
				for j := 0; j < cols; j++ {
					for i := 0; i < rows; i++ {
						want.Set(i, j, want.At(i, j)+alpha*scratch.At(i, j))
					}
				}
				if !matrix.Equal(got, want, 0) {
					t.Errorf("%v %v alpha=%g: fused epilogue diverges (max diff %g)",
						cv, dims, alpha, matrix.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

// TestUnpackAccumulateBetaZeroStores: told that dst was scaled by
// β = 0, the epilogue stores α·t without reading dst. That must be
// fl(α·t) bit for bit, Standard's β = 0 specification — across fringes,
// for the α values the walk specializes, and where the product is
// exactly zero, which α = −1 turns into a −0 that lands as −0, as a
// product a one-block call stores into C in place does — and it must not
// read dst: whatever non-finite garbage a β = 0 caller left there is
// gone, as BLAS specifies.
func TestUnpackAccumulateBetaZeroStores(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	rows, cols := 33, 17
	src := matrix.Random(rows, cols, rng)
	for j := 0; j < cols; j++ { // a block of exact zeros, fringe included
		for i := 20; i < rows; i++ {
			src.Set(i, j, 0)
		}
	}
	for _, cv := range []layout.Curve{layout.ZMorton, layout.Hilbert} {
		tl := NewTiled(cv, 2, 9, 5, rows, cols)
		if err := tl.Pack(context.Background(), pool, src, false, 1); err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{1, -1, 0.5} {
			want := matrix.New(rows, cols)
			for j := 0; j < cols; j++ {
				for i := 0; i < rows; i++ {
					want.Set(i, j, alpha*tl.At(i, j))
				}
			}
			got := matrix.Random(rows, cols, rng)
			got.Set(3, 3, math.NaN())
			if err := tl.UnpackAccumulate(context.Background(), pool, got, alpha, 0); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < cols; j++ {
				for i := 0; i < rows; i++ {
					if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%v alpha=%g: (%d,%d) stored %v (%#x), fl(α·t) is %v (%#x)",
							cv, alpha, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestGEMMFusedEpilogueBetaSweep is the acceptance differential for the
// fused epilogue: every curve (canonical included) × every trans
// combination × β ∈ {0, 1, 0.5} against RefGEMM, on a shape with
// padding fringes in all three dimensions.
func TestGEMMFusedEpilogueBetaSweep(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(22))
	m, k, n := 33, 29, 37
	for _, cv := range mulCurves {
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
					C := matrix.Random(m, n, rng)
					want := C.Clone()
					matrix.RefGEMM(ta, tb, 0.75, A, B, beta, want)

					got := C.Clone()
					opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
					if st, err := GEMM(pool, opts, ta, tb, 0.75, A, B, beta, got); err != nil {
						t.Fatalf("%v ta=%v tb=%v beta=%g: %v", cv, ta, tb, beta, err)
					} else if st.Blocks != 1 || st.PackDeferred != 0 {
						t.Errorf("%v: %d blocks, %d packs deferred; a single block packs up front", cv, st.Blocks, st.PackDeferred)
					}
					if !matrix.Equal(got, want, tol(m, k, n)) {
						t.Errorf("%v ta=%v tb=%v beta=%g: max diff %g",
							cv, ta, tb, beta, matrix.MaxAbsDiff(got, want))
					}
				}
			}
		}
	}
}

// TestPackTransposeOfMatchesDirectPack: deriving the transposed operand
// inside the layout must produce exactly the buffer a direct transposed
// Pack of the source would.
func TestPackTransposeOfMatchesDirectPack(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	for _, cv := range layout.RecursiveCurves {
		for _, dims := range [][4]int{
			{16, 16, 4, 4},
			{15, 13, 4, 3}, // fringes, rectangular tiles
			{9, 14, 3, 4},
		} {
			rows, cols, tr, tc := dims[0], dims[1], dims[2], dims[3]
			d := uint(0)
			for (tr<<d) < rows || (tc<<d) < cols {
				d++
			}
			src := matrix.Random(rows, cols, rng)
			direct := NewTiled(cv, d, tr, tc, rows, cols)
			if err := direct.Pack(context.Background(), pool, src, false, 1); err != nil {
				t.Fatal(err)
			}

			// The transpose, packed two ways: re-reading the source with
			// trans=true, and deriving in-layout from the direct pack.
			viaSrc := NewTiled(cv, d, tc, tr, cols, rows)
			if err := viaSrc.Pack(context.Background(), pool, src, true, 1); err != nil {
				t.Fatal(err)
			}
			derived := NewTiled(cv, d, tc, tr, cols, rows)
			if err := derived.PackTransposeOf(context.Background(), pool, direct); err != nil {
				t.Fatal(err)
			}
			for i := range derived.Data {
				if derived.Data[i] != viaSrc.Data[i] {
					t.Fatalf("%v %v: PackTransposeOf differs from direct pack at %d", cv, dims, i)
				}
			}
		}
	}
}

// TestPackTransposeOfValidation rejects mismatched grids.
func TestPackTransposeOfValidation(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	src := NewTiled(layout.ZMorton, 2, 4, 3, 16, 12)
	if err := NewTiled(layout.Hilbert, 2, 3, 4, 12, 16).PackTransposeOf(context.Background(), pool, src); err == nil {
		t.Error("curve mismatch not rejected")
	}
	if err := NewTiled(layout.ZMorton, 3, 3, 4, 12, 16).PackTransposeOf(context.Background(), pool, src); err == nil {
		t.Error("depth mismatch not rejected")
	}
	if err := NewTiled(layout.ZMorton, 2, 4, 3, 16, 12).PackTransposeOf(context.Background(), pool, src); err == nil {
		t.Error("unmirrored tile shape not rejected")
	}
}

// TestGEMMSymmetricFoldsSecondPack: when both operand slots view the
// same storage with opposite trans flags (SYRK's diagonal GEMM), the
// driver must derive the second pack in-layout (PackReused) and still
// match the reference.
func TestGEMMSymmetricFoldsSecondPack(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(24))
	n, k := 40, 24
	for _, cv := range layout.RecursiveCurves {
		for _, trans := range []bool{false, true} {
			A := matrix.Random(n, k, rng)
			if trans {
				A = matrix.Random(k, n, rng)
			}
			C := matrix.Random(n, n, rng)
			want := C.Clone()
			matrix.RefGEMM(trans, !trans, 1.5, A, A, 0.5, want)

			got := C.Clone()
			opts := Options{Curve: cv, Alg: Standard, Tile: testTile}
			stats, err := GEMM(pool, opts, trans, !trans, 1.5, A, A, 0.5, got)
			if err != nil {
				t.Fatalf("%v trans=%v: %v", cv, trans, err)
			}
			if stats.PackReused == 0 {
				t.Errorf("%v trans=%v: symmetric second pack not folded (PackReused=0)", cv, trans)
			}
			if !matrix.Equal(got, want, tol(n, k, n)) {
				t.Errorf("%v trans=%v: max diff %g", cv, trans, matrix.MaxAbsDiff(got, want))
			}
		}
	}
}

// TestEpilogueBetaMatchesScale: the fused epilogue, chunked over the
// pool into a strided view, must equal serial Scale by β followed by the
// α·t accumulate, bit for bit, for the β values it specializes; β = 0
// stores over whatever the view held, a NaN or an Inf too (which Equal
// never passes), without reading it; and nothing outside the view moves.
func TestEpilogueBetaMatchesScale(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(25))
	src := matrix.Random(30, 20, rng)
	tl := NewTiled(layout.Hilbert, 2, 8, 5, 30, 20)
	if err := tl.Pack(context.Background(), pool, src, false, 1); err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0.375, 0, 1, -2} {
		for _, alpha := range []float64{1, 0.75} {
			base := matrix.Random(40, 40, rng)
			if beta == 0 {
				base.Set(4, 6, math.NaN())
				base.Set(5, 6, math.Inf(-1))
			}
			ref := base.Clone()
			va, vb := base.View(3, 5, 30, 20), ref.View(3, 5, 30, 20)
			if err := onPool(context.Background(), pool, func(e *exec, c *sched.Ctx) { tl.unpackAccumulate(e, c, va, alpha, beta) }); err != nil {
				t.Fatal(err)
			}
			vb.Scale(beta)
			for j := 0; j < 20; j++ {
				for i := 0; i < 30; i++ {
					vb.Set(i, j, vb.At(i, j)+float64(alpha*src.At(i, j)))
				}
			}
			if !sameBits(base, ref) {
				t.Errorf("β=%v α=%v: the chunked epilogue diverges from serial Scale and accumulate (max diff %g)",
					beta, alpha, matrix.MaxAbsDiff(base, ref))
			}
		}
	}
}

// TestShieldedPassesCompleteOnCancelledRun: the pass of the failure
// contract that may not be left half-applied — the fused epilogue, which
// applies β — runs to completion when it begins on a run that is already
// cancelled, chunked over the pool as on a live one; a pass that carries
// no such promise (the zero-fill) spawns nothing there.
func TestShieldedPassesCompleteOnCancelledRun(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(26))
	src := matrix.Random(64, 48, rng)
	tl := NewTiled(layout.Hilbert, 3, 8, 6, 64, 48)
	if err := tl.Pack(context.Background(), pool, src, false, 1); err != nil {
		t.Fatal(err)
	}
	C0 := matrix.Random(64, 48, rng)
	epilogue := C0.Clone()
	dirty := make([]float64, 4096)
	for i := range dirty {
		dirty[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	err := onPool(ctx, pool, func(e *exec, c *sched.Ctx) {
		cancel()
		if !c.Cancelled() {
			t.Error("the run does not see its cancellation")
		}
		tl.unpackAccumulate(e, c, epilogue, 2, 0.5)
		e.zero(c, dirty)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for j := 0; j < 48; j++ {
		for i := 0; i < 64; i++ {
			if got, want := epilogue.At(i, j), 0.5*C0.At(i, j)+2*src.At(i, j); got != want {
				t.Fatalf("epilogue at (%d,%d) = %g, want %g: cut short by the run's cancellation", i, j, got, want)
			}
		}
	}
	for i, v := range dirty {
		if v != 1 {
			t.Fatalf("the unshielded zero-fill ran on a cancelled run (element %d)", i)
		}
	}
}
