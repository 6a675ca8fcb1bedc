//go:build amd64 && !noasm

package leaf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/matrix"
)

// BenchmarkKernelAVX512Rows is the A/B of the avx512 family's block
// height: its 32-row chain (32 → 16 → 8) against the 16-row chain that
// is its remainder (16 → 8), interleaved on the same contiguous 32³ and
// 64³ tiles. Every iteration times one batch of calls through each, in
// alternating order; the benchmark reports each chain's GFLOPS and the
// median over iterations of the batch time ratio, 16-row over 32-row
// (above 1: the 32-row block is faster). Both chains give the same bits
// (TestAVX512MatchesAVX2Bits), so the ratio is the body's speed alone.
func BenchmarkKernelAVX512Rows(b *testing.B) {
	if !slices.Contains(SIMDNames(), "avx512") {
		b.Skip("no avx512 kernel on this host")
	}
	chains := [2]*microImpl{microAVX512.rem, microAVX512}
	for _, n := range []int{32, 64} {
		b.Run(shapeName(n, n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			A, B, C := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
			var s Scratch
			reps := max(1, 1<<20/(n*n*n)) // 2 MFLOP a batch
			var total [2]time.Duration
			ratios := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var t [2]time.Duration
				for j := range chains {
					c := (i + j) % 2
					start := time.Now()
					for r := 0; r < reps; r++ {
						packedMul(&s, chains[c], false, n, n, n, A.Data, n, B.Data, n, C.Data, n)
					}
					t[c] = time.Since(start)
				}
				total[0] += t[0]
				total[1] += t[1]
				ratios = append(ratios, float64(t[0])/float64(t[1]))
			}
			flops := 2 * float64(n*n*n) * float64(reps*b.N)
			sort.Float64s(ratios)
			b.ReportMetric(flops/total[0].Seconds()/1e9, "GFLOPS-16row")
			b.ReportMetric(flops/total[1].Seconds()/1e9, "GFLOPS-32row")
			b.ReportMetric(ratios[len(ratios)/2], "16row/32row")
		})
	}
}
