package matrix

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// specFill is SeedFill's specification: the scalar splitmix64 loop, one
// element per step, 2·(x·2⁻⁵³) − 1 on the top 53 bits of each output.
func specFill(dst []float64, seed int64) {
	s := uint64(seed)
	for k := range dst {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[k] = 2*(float64(z>>11)*0x1p-53) - 1
	}
}

// TestSeedFillMatchesSpec pins SeedFill, whichever body the host runs,
// to the scalar loop bit for bit: every length 0–67 and 4,099 (whole
// groups of eight and every tail), dst starting at every offset mod 8
// inside a larger slice, whose elements around dst it must not touch,
// and seeds at the edges of int64, random ones, and one whose state
// passes through 0 inside the buffer.
func TestSeedFillMatchesSpec(t *testing.T) {
	if cpu.AVX512DQ && !cpu.NoSIMD && seedFill8 == nil {
		t.Fatal("the host runs AVX-512DQ but SeedFill has no vector body")
	}
	t.Logf("vector body: %v", seedFill8 != nil)
	phi := uint64(0x9e3779b97f4a7c15)
	seeds := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, int64(0 - 100*phi)} // state 0 at element 99
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 4; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	var lengths []int
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4099)
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, seed := range seeds {
		for _, n := range lengths {
			want := make([]float64, n)
			specFill(want, seed)
			for off := 0; off < 8; off++ {
				buf := make([]float64, off+n+8)
				for k := range buf {
					buf[k] = sentinel
				}
				SeedFill(buf[off:off+n], seed)
				for k, v := range buf {
					w := sentinel
					if k >= off && k < off+n {
						w = want[k-off]
					}
					if math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("seed %d, n %d, offset %d: element %d = %x, want %x",
							seed, n, off, k-off, math.Float64bits(v), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestSeedFillGolden pins the stream itself: the FNV-1a hash of the bits
// of a 4,099-element fill at seed 42, the same on every build (the
// vector body, `-tags noasm`, RECMAT_NOSIMD=1) and every host.
func TestSeedFillGolden(t *testing.T) {
	const golden = 0x331496a8d58f40b5
	for name, fill := range map[string]func([]float64, int64){"SeedFill": SeedFill, "spec": specFill} {
		buf := make([]float64, 4099)
		fill(buf, 42)
		h := fnv.New64a()
		for _, v := range buf {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := h.Sum64(); got != golden {
			t.Errorf("%s: hash %#x, want %#x", name, got, golden)
		}
	}
}

// BenchmarkSeedFill times the fill at the daemon's operand sizes — a
// 512×16 and a 512×64 B, a 256² square — and at the benchmark probe's
// 1 Mi elements, in GB/s of float64s written.
func BenchmarkSeedFill(b *testing.B) {
	for _, sz := range [][2]int{{512, 16}, {512, 64}, {256, 256}, {1024, 1024}} {
		buf := make([]float64, sz[0]*sz[1])
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SeedFill(buf, int64(i))
			}
			b.ReportMetric(float64(8*len(buf))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
