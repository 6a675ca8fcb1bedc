package leaf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/matrix"
)

// TestPackedFastPathMatchesPackedPath pins the two storages of a leaf to
// each other: contiguous operands (lda==m, ldb==k, a recursive-layout
// tile) and strided ones (a view into canonical storage) run through one
// in-place body and must produce the same bits, for shapes on and off
// the MR/NR grid — for the pure-Go family and every assembly family by
// name, so the AVX2 whole-panel body stays exercised on hosts where Auto
// picks the wider family. A strided tile of whole blocks is read where
// it lies: the ScratchKernel call leaves no A or B buffer behind.
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
			// Contiguous operands: a recursive-layout tile.
			A := matrix.Random(m, kk, rng)
			B := matrix.Random(kk, n, rng)
			C0 := matrix.Random(m, n, rng)
			fast := C0.Clone()
			k(m, n, kk, A.Data, A.Stride, B.Data, B.Stride, fast.Data, fast.Stride)
			// The same operands embedded in larger matrices: canonical views.
			bigA := matrix.Random(m+3, kk+2, rng)
			bigB := matrix.Random(kk+5, n+1, rng)
			av, bv := bigA.View(2, 1, m, kk), bigB.View(3, 0, kk, n)
			av.CopyFrom(A)
			bv.CopyFrom(B)
			slow := C0.Clone()
			k(m, n, kk, av.Data, av.Stride, bv.Data, bv.Stride, slow.Data, slow.Stride)
			if !matrix.Equal(fast, slow, 0) {
				t.Errorf("%s: contiguous and strided operands disagree at %dx%dx%d (max diff %g)",
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
		impl, _ := GetImpl(name)
		const d = 32 // on the grid of every family
		A, B, C0 := matrix.Random(d, d, rng), matrix.Random(d, d, rng), matrix.Random(d, d, rng)
		av, bv := matrix.Random(d+5, d, rng).View(5, 0, d, d), matrix.Random(d+3, d, rng).View(3, 0, d, d)
		av.CopyFrom(A)
		bv.CopyFrom(B)
		fast, slow := C0.Clone(), C0.Clone()
		var s Scratch
		impl.Scratch(&s, d, d, d, A.Data, A.Stride, B.Data, B.Stride, fast.Data, fast.Stride)
		impl.Scratch(&s, d, d, d, av.Data, av.Stride, bv.Data, bv.Stride, slow.Data, slow.Stride)
		if s.pa != nil || s.pb != nil {
			t.Errorf("%s: a %d³ strided tile left %d A and %d B elements in its Scratch, want it read in place",
				name, d, len(s.pa), len(s.pb))
		}
		if !matrix.Equal(fast, slow, 0) {
			t.Errorf("%s: strided %d³ tile disagrees with the contiguous one (max diff %g)",
				name, d, matrix.MaxAbsDiff(fast, slow))
		}
	}
}

// TestPackedKernelsAllocFree verifies the steady-state allocation claim:
// after one warm-up call, the packed kernels allocate nothing, on both
// the pooled plain-Kernel path and the explicit Scratch path.
func TestPackedKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 48 // strided, as a canonical leaf is
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

// TestStoreMatchesZeroAccumulate pins every registered kernel's store
// form to its accumulate form: Store on a C of NaN must give, bit for
// bit, what Scratch gives on a C of +0 — contiguous and strided, on and
// off every family's grid (m % 32, m % 16, m % 8 and n % 4 not zero;
// 40, 48, 56, 96 and 100 rows end each link of the 32→16→8 chain), at
// k = 1,
// and on a product of −0, which lands as +0 — and must leave C's storage
// outside the m×n region alone.
func TestStoreMatchesZeroAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][3]int{
		{16, 8, 7}, {32, 12, 1}, {8, 4, 1}, {1, 1, 1}, {44, 12, 5}, {24, 9, 3},
		{13, 6, 1}, {7, 3, 9}, {12, 11, 10}, {33, 29, 31}, {64, 64, 64},
		{40, 8, 5}, {48, 12, 3}, {56, 7, 9}, {96, 8, 4}, {100, 13, 6},
	}
	nan := math.NaN()
	for _, name := range Names() {
		impl, _ := GetImpl(name)
		var s Scratch
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			for _, pad := range []int{0, 3} { // pad > 0: strided views
				for _, negZero := range []bool{false, true} {
					A := matrix.Random(m+pad, k+pad, rng).View(pad, 0, m, k)
					B := matrix.Random(k+pad, n, rng).View(pad, 0, k, n)
					if negZero { // every product −1·(+0): a sum of −0
						A.Fill(-1)
						B.Zero()
					}
					want := matrix.New(m+pad, n).View(0, 0, m, n)
					got := matrix.New(m+pad, n)
					for i := range got.Data {
						got.Data[i] = nan
					}
					gv := got.View(0, 0, m, n)
					impl.Scratch(&s, m, n, k, A.Data, A.Stride, B.Data, B.Stride, want.Data, want.Stride)
					impl.Store(&s, m, n, k, A.Data, A.Stride, B.Data, B.Stride, gv.Data, gv.Stride)
					for j := 0; j < n; j++ {
						for i := 0; i < m+pad; i++ {
							g := got.At(i, j)
							if i >= m {
								if !math.IsNaN(g) {
									t.Fatalf("%s %dx%dx%d pad %d: Store wrote %v below the region at (%d,%d)", name, m, n, k, pad, g, i, j)
								}
								continue
							}
							if w := want.At(i, j); math.Float64bits(g) != math.Float64bits(w) || negZero && math.Signbit(g) {
								t.Fatalf("%s %dx%dx%d pad %d negZero %v: Store gives C(%d,%d) = %v, Scratch on +0 gives %v",
									name, m, n, k, pad, negZero, i, j, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// splitPad is how many rows into their storage a splitCheck's strided
// views start.
const splitPad = 3

// splitCheck holds one call of a kernel over m×n×k to splits of the same
// product along rows, columns and k: one call per block, each C block's
// k blocks in ascending order, the first through Store when storing.
// Contiguous and strided operands, accumulating into a C holding -0s and
// storing over a C of NaN. The first split that differs is fatal.
type splitCheck struct {
	name    string
	impl    Impl
	s       Scratch
	a, b, c *matrix.Dense
	bufs    [2][(160 + splitPad) * 160]float64 // one call's C and a split's
}

func newSplitCheck(name string, impl Impl, seed int64) *splitCheck {
	rng := rand.New(rand.NewSource(seed))
	sc := &splitCheck{name: name, impl: impl,
		a: matrix.Random(160+splitPad, 160, rng), b: matrix.Random(160+splitPad, 160, rng), c: matrix.Random(160, 160, rng)}
	for i := 0; i < 160*160; i += 7 {
		sc.c.Set(i%160, i/160, math.Copysign(0, -1))
	}
	return sc
}

// run is C (+)= A·B as one call per block of the row, column and k cuts.
func (sc *splitCheck) run(store bool, rows, cols, ks []int, A, B, C *matrix.Dense) {
	for x := 0; x+1 < len(ks); x++ {
		for y := 0; y+1 < len(cols); y++ {
			for z := 0; z+1 < len(rows); z++ {
				kern := sc.impl.Scratch
				if store && x == 0 {
					kern = sc.impl.Store
				}
				i, j, p := rows[z], cols[y], ks[x]
				kern(&sc.s, rows[z+1]-i, cols[y+1]-j, ks[x+1]-p, A.Data[p*A.Stride+i:], A.Stride,
					B.Data[j*B.Stride+p:], B.Stride, C.Data[j*C.Stride+i:], C.Stride)
			}
		}
	}
}

// check holds one call over m×n×k to each split (row, column and k
// cuts).
func (sc *splitCheck) check(t *testing.T, m, n, k int, splits ...[3][]int) {
	t.Helper()
	for _, strided := range []bool{false, true} {
		A, B := sc.a.View(splitPad, 0, m, k), sc.b.View(splitPad, 0, k, n)
		if !strided {
			A, B = A.Clone(), B.Clone()
		}
		for _, store := range []bool{false, true} {
			fresh := func(buf []float64) *matrix.Dense {
				c := matrix.FromSlice(buf, m, n, m)
				if strided {
					c = matrix.FromSlice(buf, m+splitPad, n, m+splitPad).View(splitPad, 0, m, n)
				}
				c.CopyFrom(sc.c.View(0, 0, m, n))
				if store {
					c.Fill(math.NaN())
				}
				return c
			}
			one := fresh(sc.bufs[0][:])
			sc.run(store, []int{0, m}, []int{0, n}, []int{0, k}, A, B, one)
			for _, sp := range splits {
				got := fresh(sc.bufs[1][:])
				sc.run(store, sp[0], sp[1], sp[2], A, B, got)
				if !sameBits(got, one) {
					t.Fatalf("%s %dx%dx%d strided %v store %v: split at rows %v, columns %v, k %v differs from one call",
						sc.name, m, n, k, strided, store, sp[0], sp[1], sp[2])
				}
			}
		}
	}
}

// TestChainedSplitKMatchesOneCall pins what Impl.Chained declares, on
// which the core's serial base makes one leaf call of a canonical
// quadrant instead of one per tile: for every registered kernel that
// declares it, one call, store or accumulate, equals bit for bit the
// same product split along k into 2 and 3 consecutive calls, on every m
// from 1 to 104 and n from 1 to 64 (a splitCheck). Every
// register-blocked family declares it — packed8x4, avx2, avx512, neon:
// each block chains from C — and no plain kernel does.
func TestChainedSplitKMatchesOneCall(t *testing.T) {
	for _, name := range Names() {
		impl, _ := GetImpl(name)
		if want := name == "packed8x4" || name == "avx2" || name == "avx512" || name == "neon"; impl.Chained != want {
			t.Errorf("%s declares Chained %v, want %v", name, impl.Chained, want)
		}
		if !impl.Chained {
			continue
		}
		sc := newSplitCheck(name, impl, 44)
		const k = 29
		for m := 1; m <= 104; m++ {
			for n := 1; n <= 64; n++ {
				sc.check(t, m, n, k, [3][]int{{0, m}, {0, n}, {0, 13, k}}, [3][]int{{0, m}, {0, n}, {0, 5, 17, k}})
			}
		}
	}
}

// TestGridMatchesTileLoop pins one call of a chained kernel over a
// region of tiles to the s×s×s tile loop (s 2 and 4) it replaces in the
// core's serial base (a splitCheck), over whole-block tiles and tiles
// off the 8×4 grid: fringe rows, columns or both, a grid whose side is
// itself off the grid, and tiles smaller than a block.
func TestGridMatchesTileLoop(t *testing.T) {
	// tiles cuts g tiles of the given side.
	tiles := func(side, g int) []int {
		cuts := make([]int, g+1)
		for i := range cuts {
			cuts[i] = i * side
		}
		return cuts
	}
	for _, name := range Names() {
		impl, _ := GetImpl(name)
		if !impl.Chained {
			continue
		}
		sc := newSplitCheck(name, impl, 45)
		for _, sz := range [][3]int{{8, 4, 8}, {24, 24, 24}, {25, 25, 25}, {38, 38, 38}, {25, 7, 3}, {5, 6, 9}, {12, 2, 25}, {3, 3, 5}, {33, 13, 1}, {40, 5, 16}} {
			for _, g := range []int{2, 4} {
				sc.check(t, g*sz[0], g*sz[1], g*sz[2], [3][]int{tiles(sz[0], g), tiles(sz[1], g), tiles(sz[2], g)})
			}
		}
	}
}

// sameBits reports whether a and b hold the same bit patterns. Equal
// nonzero numbers have equal bits, so only zeros, NaNs and unequal
// numbers are compared as bits (which keeps -race runs short).
func sameBits(a, b *matrix.Dense) bool {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if x, y := a.At(i, j), b.At(i, j); (x != y || x == 0) && math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// TestBlockHeightsArePowersOfTwo pins what packedMul's masks assume:
// every family's block height, down every rem chain, is a power of two.
func TestBlockHeightsArePowersOfTwo(t *testing.T) {
	heads := []*microImpl{microGo8}
	for _, si := range archSIMD() {
		heads = append(heads, si.mk)
	}
	for _, mk := range heads {
		for fam := mk; fam != nil; fam = fam.rem {
			if fam.mr <= 0 || fam.mr&(fam.mr-1) != 0 {
				t.Errorf("block height %d is not a power of two", fam.mr)
			}
		}
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
// whose rate beside 32³'s is what the fringe costs, and at the leaves of
// the repository benchmark's stream workloads (32×12×32) and of its
// daemon workload (32×4×32), and at the panel leaves a thin partner's
// serial base calls in their place (a 32-row tile over the block's whole
// width and two k tiles: 32×48×64, 32×16×64, 32×40×64) — on contiguous leaves (the
// recursive-layout case, lda == m) and strided leaves (the canonical
// case, lda >> m). This is where kernels are timed against each other
// now that the default is a rule and not a race: after each size it
// prints the contiguous ranking with Auto's pick, flagged when the pick
// measured more than 10% behind the fastest.
func BenchmarkKernelTile(b *testing.B) {
	logPeaks()
	for _, sh := range [][3]int{{8, 8, 8}, {32, 32, 32}, {64, 64, 64}, {25, 25, 25}, {38, 38, 38}, {32, 6, 32},
		{32, 12, 32}, {32, 4, 32}, {32, 48, 64}, {32, 16, 64}, {32, 40, 64}} {
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

// BenchmarkKernelMergedBase is the leaf-level A/B behind the core's
// merged serial base: the default kernel on a 64³ product at ld 64 as one
// store call, against the eight 32³ tile calls the base made of it — in
// the base's (k, i, j) order, storing when kk = 0 — interleaved in
// alternating order. It reports each side's GFLOPS and the median over
// iterations of the batch time ratio, eight calls over one (above 1: the
// one call is faster). The default kernel, chained, gives both the same
// bits (TestChainedSplitKMatchesOneCall).
func BenchmarkKernelMergedBase(b *testing.B) {
	const n, t = 64, 32
	impl := Auto(t, t, t)
	rng := rand.New(rand.NewSource(1))
	A, B, C := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var s Scratch
	sides := [2]func(){
		func() { impl.Store(&s, n, n, n, A.Data, n, B.Data, n, C.Data, n) },
		func() {
			for l := 0; l < 8; l++ {
				i, j, kk := l>>1&1, l&1, l>>2&1
				kern := impl.Scratch
				if kk == 0 {
					kern = impl.Store
				}
				kern(&s, t, t, t, A.Data[kk*t*n+i*t:], n, B.Data[j*t*n+kk*t:], n, C.Data[j*t*n+i*t:], n)
			}
		},
	}
	const reps = 16 // 8 MFLOP a batch
	var total [2]time.Duration
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var d [2]time.Duration
		for o := range sides {
			side := (it + o) % 2
			start := time.Now()
			for r := 0; r < reps; r++ {
				sides[side]()
			}
			d[side] = time.Since(start)
		}
		total[0] += d[0]
		total[1] += d[1]
		ratios = append(ratios, float64(d[1])/float64(d[0]))
	}
	flops := 2 * float64(n*n*n) * float64(reps*b.N)
	sort.Float64s(ratios)
	b.ReportMetric(flops/total[0].Seconds()/1e9, "GFLOPS-one")
	b.ReportMetric(flops/total[1].Seconds()/1e9, "GFLOPS-eight")
	b.ReportMetric(ratios[len(ratios)/2], "eight/one")
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
