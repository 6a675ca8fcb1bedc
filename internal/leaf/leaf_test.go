package leaf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// runKernel applies a kernel to matrix.Dense operands.
func runKernel(k Kernel, C, A, B *matrix.Dense) {
	k(C.Rows, C.Cols, A.Cols, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {8, 8, 8},
		{16, 16, 16}, {17, 19, 23}, {32, 1, 32}, {1, 32, 1}, {33, 31, 29},
	}
	for name := range kernels {
		k, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			m, n, kk := sh[0], sh[1], sh[2]
			A := matrix.Random(m, kk, rng)
			B := matrix.Random(kk, n, rng)
			C := matrix.Random(m, n, rng)
			want := C.Clone()
			matrix.RefMulAdd(want, A, B)
			runKernel(k, C, A, B)
			if !matrix.Equal(C, want, 1e-12) {
				t.Errorf("%s: wrong result for %dx%dx%d (max diff %g)",
					name, m, n, kk, matrix.MaxAbsDiff(C, want))
			}
		}
	}
}

func TestKernelsAccumulate(t *testing.T) {
	// Kernels must compute C += A·B, not C = A·B.
	rng := rand.New(rand.NewSource(2))
	A := matrix.Random(8, 8, rng)
	B := matrix.Random(8, 8, rng)
	for name, impl := range kernels {
		k := impl.Kern
		C := matrix.Random(8, 8, rng)
		want := C.Clone()
		matrix.RefMulAdd(want, A, B)
		runKernel(k, C, A, B)
		if !matrix.Equal(C, want, 1e-12) {
			t.Errorf("%s does not accumulate into C", name)
		}
	}
}

func TestKernelsOnStridedViews(t *testing.T) {
	// The canonical-layout leaf case: tiles are views into a big matrix
	// with leading dimension much larger than the tile.
	rng := rand.New(rand.NewSource(3))
	big := matrix.Random(64, 64, rng)
	A := big.View(3, 5, 12, 9)
	B := big.View(20, 17, 9, 10)
	for name, impl := range kernels {
		k := impl.Kern
		C := matrix.Random(12, 10, rng)
		want := C.Clone()
		matrix.RefMulAdd(want, A, B)
		runKernel(k, C, A, B)
		if !matrix.Equal(C, want, 1e-12) {
			t.Errorf("%s wrong on strided views", name)
		}
	}
}

func TestKernelsZeroDims(t *testing.T) {
	for name, impl := range kernels {
		k := impl.Kern
		// m, n, or k of zero must be a no-op and must not panic.
		c := []float64{42}
		k(0, 0, 0, nil, 1, nil, 1, c, 1)
		k(1, 1, 0, nil, 1, nil, 1, c, 1)
		if c[0] != 42 {
			t.Errorf("%s modified C with k=0", name)
		}
	}
}

func TestKernelsAgreePropertyBased(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, kk := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
		A := matrix.Random(m, kk, rng)
		B := matrix.Random(kk, n, rng)
		C0 := matrix.Random(m, n, rng)
		var prev *matrix.Dense
		for _, name := range Names() {
			k, _ := Get(name)
			C := C0.Clone()
			runKernel(k, C, A, B)
			if prev != nil && !matrix.Equal(C, prev, 1e-12) {
				return false
			}
			prev = C
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("sgemm"); err == nil {
		t.Fatal("Get on unknown kernel should error")
	}
}

func TestNamesRegistered(t *testing.T) {
	for _, n := range Names() {
		if _, err := Get(n); err != nil {
			t.Errorf("Names() lists unregistered kernel %q", n)
		}
	}
	if len(Names()) != len(kernels) {
		t.Errorf("Names() has %d entries, registry has %d", len(Names()), len(kernels))
	}
}

func benchKernel(b *testing.B, k Kernel, n int) {
	rng := rand.New(rand.NewSource(1))
	A := matrix.Random(n, n, rng)
	B := matrix.Random(n, n, rng)
	C := matrix.New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runKernel(k, C, A, B)
	}
}

func BenchmarkKernels64(b *testing.B) {
	for _, name := range Names() {
		k, _ := Get(name)
		b.Run(name, func(b *testing.B) { benchKernel(b, k, 64) })
	}
}

// TestFastCutoff pins the crossover rule: per kernel family, the cutoff
// on 32×32×32 tiles under Winograd's 10/9/7 passes a level — the values
// the per-process stopwatch it replaces landed on in most processes
// (EXPERIMENTS.md) — from the balance a registered family carries; a
// cutoff that never falls as tiles shrink; and each algorithm priced on
// its own passes, Strassen's 10/12/7 moving a family that sits just
// under a power of two. TestNoSIMDEnv runs it in a RECMAT_NOSIMD child
// too: the pure-Go families resolve the same with the assembly ones
// registered or not.
func TestFastCutoff(t *testing.T) {
	winograd, strassen := [3]int{10, 9, 7}, [3]int{10, 12, 7}
	cut := func(impl Impl, tile int, p [3]int) int {
		return FastCutoff(impl, tile, tile, tile, p[0], p[1], p[2])
	}
	for _, c := range []struct {
		name    string
		balance float64
		want    int
	}{
		{"avx512", 6.8, 64}, {"avx2", 3.4, 32}, {"neon", 1.7, 16},
		{"packed8x4", 0.45, 4}, {"blocked", 0.4, 4},
		{"unrolled4", 0.25, 2}, {"axpy", 0.25, 2}, {"naive", 0.125, 1},
	} {
		impl, err := GetImpl(c.name)
		if err != nil {
			impl = Impl{Name: c.name, Balance: c.balance} // not on this host
		} else if impl.Balance != c.balance {
			t.Errorf("%s is registered at balance %g, want %g", c.name, impl.Balance, c.balance)
		}
		c16, c32, c64 := cut(impl, 16, winograd), cut(impl, 32, winograd), cut(impl, 64, winograd)
		if c32 != c.want {
			t.Errorf("%s: cutoff %d on 32³ tiles, want %d", c.name, c32, c.want)
		}
		if c16 < c32 || c32 < c64 {
			t.Errorf("%s: cutoff %d, %d, %d on 16³, 32³, 64³ tiles falls as tiles shrink", c.name, c16, c32, c64)
		}
		if s := cut(impl, 32, strassen); s != c32 {
			t.Errorf("%s: Strassen's cutoff on 32³ tiles is %d, Winograd's %d", c.name, s, c32)
		}
	}
	// 61 against 55 streams a level: a tenth more bytes.
	if w, s := cut(Impl{Balance: 4.4}, 32, winograd), cut(Impl{Balance: 4.4}, 32, strassen); w != 32 || s != 64 {
		t.Errorf("balance 4.4 on 32³ tiles: Winograd %d, Strassen %d; want 32 and 64", w, s)
	}
	// Squat tiles stream more bytes per flop; the zero Impl and a
	// degenerate tile terminate.
	if got := FastCutoff(Impl{Balance: 6.8}, 32, 12, 32, 10, 9, 7); got != 128 {
		t.Errorf("avx512 balance on 32×12×32 tiles: cutoff %d, want 128", got)
	}
	if a, b := cut(Impl{}, 32, winograd), FastCutoff(Impl{Balance: 1}, 32, 32, 0, 10, 9, 7); a != 1 || b != 1<<30 {
		t.Errorf("zero Impl %d, zero-depth tile %d; want 1 and 1<<30", a, b)
	}
}
