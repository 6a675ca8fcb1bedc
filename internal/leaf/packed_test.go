package leaf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// TestPackedFastPathMatchesPackedPath pins the two code paths of the
// packed kernels against each other: contiguous operands (lda==m,
// ldb==k, the recursive-tile fast path that skips packing) must produce
// exactly what strided operands (the canonical-view path that packs both
// panels) produce, for shapes on and off the MR/NR grid — for the
// pure-Go family and every assembly family by name, so the AVX2
// whole-panel body stays exercised on hosts where Auto picks the
// wider family.
func TestPackedFastPathMatchesPackedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{4, 4, 4}, {8, 4, 8}, {16, 16, 16}, {32, 32, 32},
		{5, 5, 5}, {7, 3, 9}, {9, 6, 2}, {12, 11, 10},
		{1, 1, 1}, {8, 8, 1}, {1, 8, 8}, {33, 29, 31},
		{24, 8, 8}, {44, 12, 5}, // past the last 16-row block: 8 rows, then 4
	}
	for _, name := range append([]string{"packed8x4"}, SIMDNames()...) {
		k, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			m, n, kk := sh[0], sh[1], sh[2]
			// Contiguous operands: fast path.
			A := matrix.Random(m, kk, rng)
			B := matrix.Random(kk, n, rng)
			C0 := matrix.Random(m, n, rng)
			fast := C0.Clone()
			k(m, n, kk, A.Data, A.Stride, B.Data, B.Stride, fast.Data, fast.Stride)
			// The same operands embedded in larger matrices: packed path.
			bigA := matrix.Random(m+3, kk+2, rng)
			bigB := matrix.Random(kk+5, n+1, rng)
			av, bv := bigA.View(2, 1, m, kk), bigB.View(3, 0, kk, n)
			av.CopyFrom(A)
			bv.CopyFrom(B)
			slow := C0.Clone()
			k(m, n, kk, av.Data, av.Stride, bv.Data, bv.Stride, slow.Data, slow.Stride)
			if !matrix.Equal(fast, slow, 0) {
				t.Errorf("%s: fast path and packed path disagree at %dx%dx%d (max diff %g)",
					name, m, n, kk, matrix.MaxAbsDiff(fast, slow))
			}
			// And both must match the reference.
			want := C0.Clone()
			matrix.RefMulAdd(want, A, B)
			if !matrix.Equal(fast, want, 1e-12*float64(kk+1)) {
				t.Errorf("%s: wrong result at %dx%dx%d (max diff %g)",
					name, m, n, kk, matrix.MaxAbsDiff(fast, want))
			}
		}
	}
}

// TestPackedKernelsAllocFree verifies the steady-state allocation claim:
// after one warm-up call, the packed kernels allocate nothing, on both
// the pooled plain-Kernel path and the explicit Scratch path.
func TestPackedKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 48 // off the MR/NR grid on purpose, and strided to force packing
	big := matrix.Random(80, 80, rng)
	A, B := big.View(0, 0, n, n), big.View(16, 16, n, n)
	C := matrix.Random(n, n, rng)
	for _, name := range []string{"packed8x4"} {
		kern, _ := Get(name)
		// The pooled path keeps its scratch in a sync.Pool, which any GC
		// may legitimately empty between the warm-up call and the
		// measurement (and the race detector plus neighboring packages
		// make that likely under `go test -race ./...`). Re-warm and
		// retry a few times: a real leak fails every attempt, a pool
		// eviction only the unlucky ones.
		avg := 1.0
		for attempt := 0; attempt < 5 && avg >= 1; attempt++ {
			kern(n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
			avg = testing.AllocsPerRun(20, func() {
				kern(n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
			})
		}
		if avg >= 1 {
			t.Errorf("%s (pooled): %.1f allocs/op in steady state, want 0", name, avg)
		}
	}
	var s Scratch
	impl, _ := GetImpl("packed8x4")
	impl.Scratch(&s, n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
	avg := testing.AllocsPerRun(20, func() {
		impl.Scratch(&s, n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
	})
	if avg != 0 {
		t.Errorf("packed8x4 (scratch): %.1f allocs/op in steady state, want 0", avg)
	}
}

// TestScratchAt pins the lazy per-slot scratch installation.
func TestScratchAt(t *testing.T) {
	var slot any
	s1 := ScratchAt(&slot)
	if s1 == nil {
		t.Fatal("ScratchAt returned nil")
	}
	if s2 := ScratchAt(&slot); s2 != s1 {
		t.Error("ScratchAt did not reuse the installed Scratch")
	}
}

// benchLeaf times kern on m×n×k leaves — contiguous, the exact call the
// recursive algorithms make on recursive-layout tiles, or strided — and
// returns the GFLOPS it reports.
func benchLeaf(b *testing.B, kern Kernel, m, n, k int, strided bool) float64 {
	rng := rand.New(rand.NewSource(1))
	var A, B, C *matrix.Dense
	if strided {
		// Leaves of a canonical-layout run: views into a larger array.
		d := max(m, n, k)
		big := matrix.Random(4*d, 4*d, rng)
		A, B, C = big.View(0, 0, m, k), big.View(d, d, k, n), big.View(2*d, 2*d, m, n)
	} else {
		A, B, C = matrix.Random(m, k, rng), matrix.Random(k, n, rng), matrix.New(m, n)
	}
	b.SetBytes(int64(8 * m * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern(m, n, k, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
	}
	gflops := 2 * float64(m*n*k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFLOPS")
	return gflops
}

// BenchmarkKernelTile benchmarks every registered kernel at the default
// tile sizes, at 8³ on the small side of Auto's rule, and at the
// off-grid tiles padding hands the leaf (25³ and 38³: 200³'s and 300³'s
// tiles; 32×6×32 as m×n×k: a 48-wide request against a 64-wide plan),
// whose rate beside 32³'s is what the fringe costs — on contiguous leaves (the
// recursive-layout case, lda == m) and strided leaves (the canonical
// case, lda >> m). This is where kernels are timed against each other
// now that the default is a rule and not a race: after each size it
// prints the contiguous ranking with Auto's pick, flagged when the pick
// measured more than 10% behind the fastest.
func BenchmarkKernelTile(b *testing.B) {
	logPeaks()
	for _, sh := range [][3]int{{8, 8, 8}, {32, 32, 32}, {64, 64, 64}, {25, 25, 25}, {38, 38, 38}, {32, 6, 32}} {
		m, n, k := sh[0], sh[1], sh[2]
		contig := map[string]float64{} // the last, longest run of each
		for _, name := range Names() {
			if name == "naive" {
				continue
			}
			kern, _ := Get(name)
			b.Run(benchName(name, m, n, k, "contig"), func(b *testing.B) { contig[name] = benchLeaf(b, kern, m, n, k, false) })
			b.Run(benchName(name, m, n, k, "strided"), func(b *testing.B) { benchLeaf(b, kern, m, n, k, true) })
		}
		logAutoPick(m, n, k, contig)
	}
}

// logAutoPick prints kernels by measured GFLOPS on m×n×k tiles, fastest
// first, and where Auto's pick stands among them.
func logAutoPick(m, n, k int, gflops map[string]float64) {
	names := make([]string, 0, len(gflops))
	for name := range gflops {
		names = append(names, name)
	}
	if len(names) == 0 {
		return
	}
	sort.Slice(names, func(i, j int) bool { return gflops[names[i]] > gflops[names[j]] })
	line := fmt.Sprintf("%s contiguous, GFLOPS:", shapeName(m, n, k))
	for _, name := range names {
		line += fmt.Sprintf(" %s %.1f", name, gflops[name])
	}
	pick := Auto(m, n, k).Name
	line += fmt.Sprintf("; Auto picks %s", pick)
	if got, ok := gflops[pick]; !ok {
		line += " (not run)"
	} else if best := gflops[names[0]]; got < 0.9*best {
		line += fmt.Sprintf(", %.0f%% BEHIND %s", 100*(1-got/best), names[0])
	}
	fmt.Println(line)
}

func benchName(kernel string, m, n, k int, variant string) string {
	return kernel + "/" + shapeName(m, n, k) + "/" + variant
}

// shapeName is "n32" for a cube and "32x6x32" (m×n×k) otherwise.
func shapeName(m, n, k int) string {
	if m == n && n == k {
		return fmt.Sprintf("n%d", m)
	}
	return fmt.Sprintf("%dx%dx%d", m, n, k)
}
