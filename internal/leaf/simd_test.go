package leaf

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// TestSIMDRegistration pins the dispatch wiring: every assembly kernel
// the probe unlocked is resolvable through the registry and distinct
// from the pure-Go set.
func TestSIMDRegistration(t *testing.T) {
	pure := map[string]bool{"naive": true, "unrolled4": true, "axpy": true,
		"blocked": true, "packed8x4": true}
	for _, name := range SIMDNames() {
		if pure[name] {
			t.Errorf("SIMD kernel %q collides with a pure-Go kernel name", name)
		}
		if _, err := GetImpl(name); err != nil {
			t.Errorf("SIMD kernel %q not resolvable: %v", name, err)
		}
	}
	if (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && os.Getenv("RECMAT_NOSIMD") == "" &&
		len(archFeatures()) > 0 && len(SIMDNames()) == 0 {
		t.Errorf("features %v detected but no SIMD kernel registered", Features())
	}
}

// TestAutoRule pins the default kernel as a function of the registered
// assembly families and the tile shape, and of nothing else: the widest
// family SIMDNames lists (packed8x4 without one — `-tags noasm`,
// RECMAT_NOSIMD) when the tile holds a full MicroM×MicroN block,
// "blocked" otherwise; one answer however often it is asked; never the
// reference kernel.
func TestAutoRule(t *testing.T) {
	wideName := "packed8x4"
	for _, fam := range []string{"neon", "avx2", "avx512"} { // widest last
		for _, name := range SIMDNames() {
			if name == fam {
				wideName = fam
			}
		}
	}
	for _, sh := range [][3]int{{1, 1, 1}, {3, 3, 3}, {4, 4, 4}, {7, 7, 7}, {8, 4, 8}, {8, 8, 8},
		{16, 16, 16}, {32, 6, 32}, {32, 2, 32}, {4, 32, 32}, {64, 64, 64}, {1 << 20, 1 << 20, 1 << 20}} {
		m, n, k := sh[0], sh[1], sh[2]
		want := "blocked"
		if m >= MicroM && n >= MicroN {
			want = wideName
		}
		for i := 0; i < 1000; i++ {
			got := Auto(m, n, k)
			if got.Name != want || got.Name == "naive" || got.Kern == nil || Calibrate(m, n, k) != want {
				t.Fatalf("call %d: Auto(%d, %d, %d) = %q (Calibrate %q), want %q with SIMD kernels %v",
					i, m, n, k, got.Name, Calibrate(m, n, k), want, SIMDNames())
			}
		}
	}
}

// TestSIMDFringes differentially checks the assembly kernels on shapes
// chosen to hit every fringe path: m%MR and n%NR remainders, row
// fringes on either side of half a block, single rows/columns, and k
// values that leave the micro-loop after 0 or 1 iterations — on both
// contiguous tiles and strided views, each read in place.
func TestSIMDFringes(t *testing.T) {
	if len(SIMDNames()) == 0 {
		t.Skip("no SIMD kernels on this host")
	}
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{8, 4, 8}, {16, 8, 16}, // on-grid
		{9, 5, 7}, {15, 7, 9}, {23, 9, 31}, // off both grids
		{12, 4, 8}, {20, 8, 4}, // half a block past the 8-row kernel's last
		{24, 8, 8}, {40, 4, 3}, // 8-row remainder of the 16-row kernel
		{28, 12, 9}, {47, 9, 5}, // 16-row blocks, then 8, then 4, then single rows
		{1, 1, 1}, {1, 17, 3}, {33, 1, 29}, // degenerate rows/cols
		{7, 3, 1}, {5, 5, 2}, // tiny k
	}
	for _, name := range SIMDNames() {
		kern, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			A := matrix.Random(m, k, rng)
			B := matrix.Random(k, n, rng)
			for _, strided := range []bool{false, true} {
				av, bv := A, B
				if strided {
					bigA := matrix.Random(m+5, k+3, rng)
					bigB := matrix.Random(k+2, n+7, rng)
					av, bv = bigA.View(1, 2, m, k), bigB.View(0, 3, k, n)
					av.CopyFrom(A)
					bv.CopyFrom(B)
				}
				C := matrix.Random(m, n, rng)
				want := C.Clone()
				matrix.RefMulAdd(want, A, B)
				kern(m, n, k, av.Data, av.Stride, bv.Data, bv.Stride, C.Data, C.Stride)
				if !matrix.Equal(C, want, 1e-12*float64(k+1)) {
					t.Errorf("%s wrong at %dx%dx%d strided=%v (max diff %g)",
						name, m, n, k, strided, matrix.MaxAbsDiff(C, want))
				}
			}
		}
	}
}

// TestAVX512MatchesAVX2Bits pins that the two amd64 families are one
// rounding class: every C element sees the same fused operations in the
// same order whichever runs, so which of them a host registers
// cannot change a result. Every row count from 1 to 72 — 16-row blocks
// with and without the 8-row remainder, the padded block of what is
// left, tiles shorter than one block — against column counts on and
// off the 4-column grid and under it, k from 0 up, on
// contiguous tiles and strided views (both the whole-panel body).
func TestAVX512MatchesAVX2Bits(t *testing.T) {
	k2, err2 := Get("avx2")
	k5, err5 := Get("avx512")
	if err2 != nil || err5 != nil {
		t.Skip("needs both the avx2 and the avx512 kernel")
	}
	rng := rand.New(rand.NewSource(17))
	for m := 1; m <= 72; m++ {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 32, 72} {
			for _, k := range []int{0, 1, 7, 32, 72} {
				for _, pad := range []int{0, 3} { // pad > 0: strided views
					A := matrix.Random(m+pad, k+pad, rng).View(pad, 0, m, k)
					B := matrix.Random(k+pad, n, rng).View(pad, 0, k, n)
					C := matrix.Random(m, n, rng)
					c2, c5 := C.Clone(), C.Clone()
					k2(m, n, k, A.Data, A.Stride, B.Data, B.Stride, c2.Data, c2.Stride)
					k5(m, n, k, A.Data, A.Stride, B.Data, B.Stride, c5.Data, c5.Stride)
					for i := range c2.Data {
						if c2.Data[i] != c5.Data[i] {
							t.Fatalf("%dx%dx%d pad %d: element %d is %v under avx2, %v under avx512",
								m, n, k, pad, i, c2.Data[i], c5.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestNoSIMDEnv verifies the RECMAT_NOSIMD escape hatch end to end in a
// child process (registration happens at package init, so the env var
// must be set before the process starts): with it set, no assembly
// kernel is registered, lookup of the asm names fails, and the default
// kernel follows the pure-Go rule and the pure-Go families keep their
// fast cutoffs (TestAutoRule and TestFastCutoff, run in the child too).
func TestNoSIMDEnv(t *testing.T) {
	if os.Getenv("RECMAT_LEAF_NOSIMD_CHILD") == "1" {
		if n := SIMDNames(); len(n) != 0 {
			t.Fatalf("RECMAT_NOSIMD set but SIMD kernels registered: %v", n)
		}
		for _, name := range []string{"avx2", "avx512", "neon"} {
			if _, err := Get(name); err == nil {
				t.Errorf("RECMAT_NOSIMD set but kernel %q still resolvable", name)
			}
		}
		TestAutoRule(t)
		TestFastCutoff(t)
		return
	}
	if len(SIMDNames()) == 0 {
		t.Skip("no SIMD kernels on this host; the escape hatch is a no-op")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestNoSIMDEnv$", "-test.v")
	cmd.Env = append(os.Environ(), "RECMAT_NOSIMD=1", "RECMAT_LEAF_NOSIMD_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process under RECMAT_NOSIMD failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "PASS") {
		t.Fatalf("child process did not pass:\n%s", out)
	}
}

// TestFeaturesSorted pins the Features contract: sorted, stable across
// calls, and safe to mutate the returned slice.
func TestFeaturesSorted(t *testing.T) {
	fs := Features()
	for i := 1; i < len(fs); i++ {
		if fs[i-1] >= fs[i] {
			t.Errorf("Features() not sorted: %q before %q", fs[i-1], fs[i])
		}
	}
	if len(fs) > 0 {
		fs[0] = "clobbered"
		if Features()[0] == "clobbered" {
			t.Error("Features() returned shared backing storage")
		}
	}
}

// nominalGHz is the CPU's nominal clock from /proc/cpuinfo: the figure
// in the model name ("... @ 2.10GHz") or, without one, the cpu MHz line;
// 0 when neither is there.
func nominalGHz() float64 {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	var mhz float64
	for _, line := range strings.Split(string(buf), "\n") {
		key, val, _ := strings.Cut(line, ":")
		switch strings.TrimSpace(key) {
		case "model name":
			if _, at, ok := strings.Cut(val, "@"); ok {
				if ghz, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(at), "GHz"), 64); err == nil {
					return ghz
				}
			}
		case "cpu MHz":
			if mhz == 0 {
				mhz, _ = strconv.ParseFloat(strings.TrimSpace(val), 64)
			}
		}
	}
	return mhz / 1e3
}

// logPeaks prints the analytic one-core FMA peaks the kernel benchmarks'
// GFLOPS are read against: lanes × 2 FMA pipes × 2 flops × nominal GHz.
// (A benchmark that only runs sub-benchmarks has no result line for
// b.Log to hang from, hence standard output.)
func logPeaks() {
	ghz := nominalGHz()
	peak := func(lanes float64) string {
		if ghz > 0 {
			return strconv.FormatFloat(lanes*2*2*ghz, 'f', 1, 64)
		}
		return "unknown"
	}
	fmt.Printf("analytic peak GFLOPS per core at the nominal clock: avx2 %s, avx512 %s; registered families %v\n",
		peak(4), peak(8), SIMDNames())
}

// BenchmarkKernels512 is the acceptance benchmark for the hardware
// kernels: every registered kernel (naive excluded — it would dominate
// the run for no information) on a contiguous 512³ leaf multiply, with
// GFLOPS reported. The SIMD step function shows up here as the asm
// kernel clearing ≥ 2× the best pure-Go kernel.
func BenchmarkKernels512(b *testing.B) {
	const n = 512
	logPeaks()
	for _, name := range Names() {
		if name == "naive" {
			continue
		}
		kern, _ := Get(name)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			A := matrix.Random(n, n, rng)
			B := matrix.Random(n, n, rng)
			C := matrix.New(n, n)
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern(n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// TestPrefetchEdgeViews: the prefetch entry over edge views — empty,
// 1×1, a column or a view whose last element is its slice's last,
// misaligned starts, a leading dimension past the rows — and over views
// that do not fit their slice or have ld < rows (ignored) returns
// without faulting and leaves every element's bits as they were. Under
// -tags noasm it is the no-op entry.
func TestPrefetchEdgeViews(t *testing.T) {
	data := make([]float64, 97)
	for i := range data {
		data[i] = float64(i) + 0.5
	}
	want := append([]float64(nil), data...)
	for _, v := range []struct{ off, rows, cols, lda int }{
		{0, 0, 0, 1}, {0, 0, 5, 1}, {0, 5, 0, 5}, {0, 5, -1, 5}, {0, -1, 3, 1}, // empty
		{0, 1, 1, 1}, {96, 1, 1, 1}, {96, 1, 1, 40}, // 1×1, the last one at the slice's end
		{0, 97, 1, 97}, {0, 97, 1, 200}, // the whole slice as one column
		{7, 10, 9, 10}, // contiguous, ending at the last element from a misaligned start
		{1, 3, 4, 31},  // ld > rows, ending at the last element
		{3, 9, 11, 9},  // one element past the slice: ignored
		{0, 10, 2, 9},  // ld < rows: ignored
		{90, 8, 1, 8},  // past the end: ignored
	} {
		Prefetch(data[v.off:], v.rows, v.cols, v.lda)
	}
	Prefetch(nil, 1, 1, 1)
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: %v, want %v", i, data[i], want[i])
		}
	}
}
