package leaf

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzKernelsVsNaive differentially checks every registered kernel, and
// its store form on a C of NaN, against Naive on arbitrary shapes,
// contiguous and strided. The seed
// corpus pins the cases that have bitten register-blocked kernels
// before: zero dimensions, single elements, shapes off the 8×4 and 4×4
// micro-tile grids, rows past each link of the 32→16→8 block chain, and
// extreme aspect ratios. `go test` runs the seeds;
// `go test -fuzz FuzzKernelsVsNaive` explores further.
func FuzzKernelsVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), false)
	f.Add(int64(3), uint8(0), uint8(5), uint8(3), true)
	f.Add(int64(4), uint8(4), uint8(4), uint8(4), false)
	f.Add(int64(5), uint8(8), uint8(4), uint8(8), false)
	f.Add(int64(6), uint8(7), uint8(9), uint8(5), true) // off both micro grids
	f.Add(int64(7), uint8(12), uint8(11), uint8(10), false)
	f.Add(int64(8), uint8(33), uint8(31), uint8(29), true)
	f.Add(int64(9), uint8(1), uint8(40), uint8(2), true)    // lean
	f.Add(int64(10), uint8(40), uint8(1), uint8(47), false) // wide
	// Regression: k=0 with m%4 != 0 made Blocked4x4 slice an empty A at
	// a nonzero offset (found by this fuzzer).
	f.Add(int64(11), uint8(21), uint8(16), uint8(0), false)
	// Rows that end each link of the avx512 chain (32, then 16, then 8
	// rows) and run past it into the padded block.
	for i, m := range []uint8{40, 48, 56, 96, 100} {
		f.Add(int64(12+i), m, uint8(9+i), uint8(5+i), false)
		f.Add(int64(17+i), m, uint8(4+i), uint8(3+2*i), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, mu, nu, ku uint8, strided bool) {
		m, n, k := int(mu%112), int(nu%48), int(ku%48)
		lda, ldb, ldc := m, k, m
		if strided {
			lda, ldb, ldc = m+3, k+5, m+2
		}
		rng := rand.New(rand.NewSource(seed))
		fill := func(len int) []float64 {
			s := make([]float64, len)
			for i := range s {
				s[i] = rng.Float64()*2 - 1
			}
			return s
		}
		a, b, c0 := fill(lda*k), fill(ldb*n), fill(ldc*n)
		want := append([]float64(nil), c0...)
		Naive(m, n, k, a, lda, b, ldb, want, ldc)
		store := make([]float64, len(c0))
		Naive(m, n, k, a, lda, b, ldb, store, ldc)
		tol := 1e-12 * float64(k+1)
		// Registry-driven: every registered kernel is checked against the
		// reference, with exactly one exception — the reference itself.
		// The count assertion fails loudly if a future registration path
		// somehow skips a kernel, so new assembly kernels cannot dodge
		// differential coverage by accident.
		checked := 0
		for _, name := range Names() {
			if name == "naive" {
				continue
			}
			kern, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]float64(nil), c0...)
			kern(m, n, k, a, lda, b, ldb, got, ldc)
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > tol {
					t.Fatalf("%s disagrees with naive at %dx%dx%d (lda=%d ldb=%d ldc=%d): elem %d off by %g",
						name, m, n, k, lda, ldb, ldc, i, d)
				}
			}
			// The store form, C ← A·B, on a C of NaN: naive from +0 inside
			// the m×n region, the NaN left alone outside it.
			impl, _ := GetImpl(name)
			for i := range got {
				got[i] = math.NaN()
			}
			impl.Store(new(Scratch), m, n, k, a, lda, b, ldb, got, ldc)
			for i := range got {
				if in := i%max(ldc, 1) < m; in != !math.IsNaN(got[i]) || in && math.Abs(got[i]-store[i]) > tol {
					t.Fatalf("%s's store form disagrees with naive from zero at %dx%dx%d (lda=%d ldb=%d ldc=%d): elem %d is %v, want %v",
						name, m, n, k, lda, ldb, ldc, i, got[i], store[i])
				}
			}
			checked++
		}
		if checked != len(Names())-1 {
			t.Fatalf("differentially checked %d kernels, registry has %d (naive excluded): a registered kernel was silently skipped",
				checked, len(Names())-1)
		}
	})
}

// TestNamesSorted pins the deterministic ordering contract of Names —
// sorted and duplicate-free — and that the registry contains the
// pure-Go baseline set plus every assembly kernel the host unlocked
// (SIMDNames), without hardcoding the per-architecture names.
func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not strictly sorted: %q before %q", names[i-1], names[i])
		}
	}
	want := map[string]bool{
		"naive": true, "unrolled4": true, "axpy": true,
		"blocked": true, "packed8x4": true,
	}
	for _, n := range SIMDNames() {
		want[n] = true
	}
	for _, n := range names {
		delete(want, n)
	}
	for n := range want {
		t.Errorf("Names() missing %q", n)
	}
}
