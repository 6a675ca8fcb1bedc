package leaf

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

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

// TestRatesCutoff pins the crossover rule on fixed rates: a level on
// quadrants h tiles a side runs fast when fastMargin times its passes
// cost no more than h leaf products, and the cutoff is the first such h.
func TestRatesCutoff(t *testing.T) {
	flat := func(pass float64) (p [8]float64) {
		for i := range p {
			p[i] = pass
		}
		return p
	}
	for _, c := range []struct {
		leaf float64
		pass [8]float64
		want int
	}{
		{200e3, flat(20e3), 1},  // a scalar leaf: the paper's setting
		{100e3, flat(20e3), 1},  // exactly at the margin
		{99e3, flat(20e3), 2},   // just past it
		{3.3e3, flat(20e3), 32}, // an AVX2 leaf
		{1.6e3, flat(20e3), 64}, // twice as fast a leaf: one level higher
		{3.3e3, [8]float64{20e3, 20e3, 20e3, 20e3, 20e3, 25e3, 25e3, 25e3}, 64}, // passes slower out of cache
		{1, flat(20e3), 1 << 17}, // levels past the table repeat its last entry
		{0, flat(20e3), 1 << 30}, // the zero value terminates
	} {
		if got := (Rates{Leaf: c.leaf, Pass: c.pass, N: 8}).Cutoff(); got != c.want {
			t.Errorf("leaf %g ns, passes %v ns/tile: cutoff %d, want %d", c.leaf, c.pass, got, c.want)
		}
	}
}

// TestFastRatesMemoizes pins FastRates' bookkeeping with a stub kernel
// and stub passes that spin for a fixed time: levels are measured only
// as far up as the grid reaches and only until one wins, a repeated
// call measures nothing, a larger grid extends the record, and
// ResetCalibration drops it.
func TestFastRatesMemoizes(t *testing.T) {
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	var leaves, passes int
	kern := Impl{Name: "stub", Kern: func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		leaves++
		spin(2 * time.Microsecond)
	}}
	// Three 20 µs passes, whatever the quadrant, against a 2 µs leaf: per
	// tile a level costs 60, 15, 3.75 µs on quadrants of 1, 2, 4 tiles a
	// side, and all three lose.
	pass := func() { passes++; spin(20 * time.Microsecond) }
	lv := Level{N3: 1, N2: 1, NZero: 1,
		Add3: func(dst, a, b []float64) { pass() },
		Add2: func(dst, a []float64) { pass() },
		Zero: func(dst []float64) { pass() }}
	ResetCalibration()
	defer ResetCalibration()

	r := FastRates(kern, 32, 32, 32, lv, 4)
	if r.N != 2 || r.Leaf <= 0 || r.Cutoff() < 4 {
		t.Fatalf("a 4-tile grid measured %d levels (leaf %g ns, cutoff %d), want 2 losing ones", r.N, r.Leaf, r.Cutoff())
	}
	l0, p0 := leaves, passes
	if r2 := FastRates(kern, 32, 32, 32, lv, 4); r2 != r || leaves != l0 || passes != p0 {
		t.Errorf("a repeated call re-measured: %d leaf and %d pass calls more", leaves-l0, passes-p0)
	}
	if r3 := FastRates(kern, 32, 32, 32, lv, 8); r3.N != 3 || r3.Leaf != r.Leaf || passes == p0 {
		t.Errorf("an 8-tile grid left the record at %d levels (leaf %g, was %g)", r3.N, r3.Leaf, r.Leaf)
	}
	if other := FastRates(kern, 16, 32, 32, lv, 2); other.N != 1 {
		t.Errorf("another tile shape shares the record: %d levels", other.N)
	}
	ResetCalibration()
	l0 = leaves
	if FastRates(kern, 32, 32, 32, lv, 2); leaves == l0 {
		t.Error("ResetCalibration kept the fast-algorithm rates")
	}

	// A slow leaf wins at the first level, and nothing above is measured.
	slow := Impl{Name: "slow", Kern: func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		spin(400 * time.Microsecond)
	}}
	if r := FastRates(slow, 32, 32, 32, lv, 64); r.N != 1 || r.Cutoff() != 1 {
		t.Errorf("a slow leaf measured %d levels, cutoff %d; want 1 and 1", r.N, r.Cutoff())
	}
}
