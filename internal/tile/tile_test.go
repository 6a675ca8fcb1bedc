package tile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPickExactPowerOfTwo(t *testing.T) {
	// n = 1024 with the default range admits zero-padding choices; the
	// sweet-spot tie break should pick tile 32 (closest to TSweet).
	ch := DefaultConfig.Pick(1024, 1024, 1024)
	if !ch.Strict {
		t.Fatal("1024 should satisfy the strict constraint")
	}
	for i, p := range ch.Padded {
		if p != 1024 {
			t.Fatalf("padding introduced for dim %d: %d", i, p)
		}
	}
	if ch.Tiles[0] != 32 {
		t.Errorf("tile = %d, want the sweet spot 32", ch.Tiles[0])
	}
}

func TestPickPaddingBound(t *testing.T) {
	// Section 4: with tiles in [Tmin, Tmax], pad ratio is at most 1/Tmin.
	cfg := DefaultConfig
	for _, n := range []int{500, 777, 1000, 1025, 1200, 1500, 2047} {
		ch := cfg.Pick(n, n, n)
		if !ch.Strict {
			t.Errorf("n=%d: expected strict choice", n)
			continue
		}
		for _, p := range ch.Padded {
			ratio := float64(p-n) / float64(n)
			if ratio > 1.0/float64(cfg.TMin) {
				t.Errorf("n=%d: pad ratio %.4f exceeds 1/Tmin", n, ratio)
			}
			if p < n {
				t.Errorf("n=%d: padded %d < n", n, p)
			}
		}
	}
}

func TestPickTilesInRange(t *testing.T) {
	cfg := DefaultConfig
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 64 + rng.Intn(2000)
		k := 64 + rng.Intn(2000)
		n := 64 + rng.Intn(2000)
		// Note: squatness (ratio ≤ α) is necessary but NOT sufficient
		// for a strict common depth — the per-dimension integer depth
		// windows may fail to intersect (e.g. dims 439 and 1062 with
		// the default range). So we only assert that when Pick reports
		// Strict, the tiles really are in range, and that the fallback
		// never overflows TMax.
		ch := cfg.Pick(m, k, n)
		for _, tl := range ch.Tiles {
			if tl > cfg.TMax {
				return false
			}
			if ch.Strict && ch.D > 0 && tl < cfg.TMin {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPickPaperCounterexample(t *testing.T) {
	// The paper's footnote 2 example: m=1024, n=256, Tmin=17, Tmax=32
	// admits no strict common tiling (aspect ratio 4 > α ≈ 1.88).
	cfg := Config{TMin: 17, TMax: 32, TSweet: 24, PadSlack: 0.05}
	ch := cfg.Pick(1024, 256)
	if ch.Strict {
		t.Fatalf("strict choice found (d=%d tiles=%v) where the paper proves none exists", ch.D, ch.Tiles)
	}
	// The fallback must still produce a usable (if padded) tiling.
	if ch.Padded[0] < 1024 || ch.Padded[1] < 256 {
		t.Fatal("fallback under-covers the matrix")
	}
}

func TestPickSmallMatrixSingleTile(t *testing.T) {
	ch := DefaultConfig.Pick(8, 8, 8)
	if ch.D != 0 || ch.Tiles[0] != 8 {
		t.Fatalf("small matrix should be one tile, got d=%d tiles=%v", ch.D, ch.Tiles)
	}
}

func TestPickAlwaysCovers(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1 + rng.Intn(5000), 1 + rng.Intn(5000), 1 + rng.Intn(5000)}
		ch := DefaultConfig.Pick(dims...)
		for i := range dims {
			if ch.Padded[i] < dims[i] || ch.Tiles[i]<<ch.D != ch.Padded[i] {
				return false
			}
			if ch.Tiles[i] > DefaultConfig.TMax {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClassify(t *testing.T) {
	cfg := DefaultConfig // α = 4
	cases := []struct {
		m, n int
		want string
	}{
		{1024, 1024, "squat"},
		{1024, 256, "squat"}, // ratio exactly 4 = α
		{1025, 256, "wide"},
		{256, 1025, "lean"},
		{100, 10000, "lean"},
	}
	for _, c := range cases {
		if got := cfg.Classify(c.m, c.n); got != c.want {
			t.Errorf("Classify(%d,%d) = %q, want %q", c.m, c.n, got, c.want)
		}
	}
}

func TestSplitDim(t *testing.T) {
	segs := SplitDim(10, 3)
	// 10 into pieces of ≤3: four near-equal segments.
	if len(segs) != 4 {
		t.Fatalf("got %d segments: %v", len(segs), segs)
	}
	total, off := 0, 0
	for _, s := range segs {
		if s.Off != off {
			t.Fatalf("segments not contiguous: %v", segs)
		}
		if s.Len > 3 || s.Len < 2 {
			t.Fatalf("segment length %d not near-equal: %v", s.Len, segs)
		}
		total += s.Len
		off += s.Len
	}
	if total != 10 {
		t.Fatalf("segments cover %d, want 10", total)
	}
}

func TestSplitDimNoSplit(t *testing.T) {
	segs := SplitDim(5, 10)
	if len(segs) != 1 || segs[0] != (Seg{0, 5}) {
		t.Fatalf("unexpected split: %v", segs)
	}
}

func TestSplitDimsMakesSquat(t *testing.T) {
	cfg := DefaultConfig
	cases := [][3]int{
		{4096, 256, 256},  // wide A
		{256, 4096, 256},  // lean A, wide B
		{256, 256, 4096},  // lean B
		{8192, 128, 8192}, // outer-product-ish
		{100, 100, 100},   // already squat: no splitting
	}
	for _, c := range cases {
		ms, ks, ns := cfg.SplitDims(c[0], c[1], c[2])
		for _, sm := range ms {
			for _, sk := range ks {
				for _, sn := range ns {
					ch := cfg.Pick(sm.Len, sk.Len, sn.Len)
					if !ch.Strict && sm.Len >= cfg.TMin && sk.Len >= cfg.TMin && sn.Len >= cfg.TMin {
						t.Errorf("dims (%d,%d,%d) split (%d,%d,%d) still not strictly tileable",
							c[0], c[1], c[2], sm.Len, sk.Len, sn.Len)
					}
				}
			}
		}
	}
	// The squat case must not split at all.
	ms, ks, ns := cfg.SplitDims(100, 100, 100)
	if len(ms) != 1 || len(ks) != 1 || len(ns) != 1 {
		t.Error("squat dims should not be split")
	}
}

func TestSplitDimsCoverage(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6000), 1+rng.Intn(6000), 1+rng.Intn(6000)
		ms, ks, ns := DefaultConfig.SplitDims(m, k, n)
		cover := func(segs []Seg, dim int) bool {
			off := 0
			for _, s := range segs {
				if s.Off != off || s.Len <= 0 {
					return false
				}
				off += s.Len
			}
			return off == dim
		}
		return cover(ms, m) && cover(ks, k) && cover(ns, n)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlpha(t *testing.T) {
	if DefaultConfig.Alpha() != 4 {
		t.Fatalf("default α = %g, want 4", DefaultConfig.Alpha())
	}
}

func TestPickMicroAlignmentTieBreak(t *testing.T) {
	// 448 = 56·2³ = 28·2⁴: both tilings pad to exactly 448, so they tie
	// on volume. Plain TSweet distance prefers 28 (|28−32| < |56−32|),
	// but 28 is not a multiple of the 8×4 micro-tile while 56 is.
	plain := DefaultConfig
	ch := plain.Pick(448, 448, 448)
	if ch.Tiles[0] != 28 {
		t.Fatalf("baseline pick for 448 = %d, want 28 (test premise)", ch.Tiles[0])
	}
	micro := DefaultConfig
	micro.MicroM, micro.MicroN = 8, 4
	ch = micro.Pick(448, 448, 448)
	if ch.Tiles[0] != 56 || ch.Tiles[2] != 56 {
		t.Errorf("micro-aware pick for 448 = %v, want tiles of 56", ch.Tiles)
	}
	if !ch.Strict {
		t.Error("micro-aware pick lost strictness")
	}
	// When no aligned candidate exists the tie-break must fall back to
	// TSweet distance unchanged: 176 = 44·2² = 22·2³, neither a multiple
	// of 8.
	ch = micro.Pick(176, 176, 176)
	if ch.Tiles[0] != 22 {
		t.Errorf("pick for 176 with no aligned candidate = %v, want 22", ch.Tiles)
	}
}

// TestPickAllocatesOnlyItsChoice: a Pick allocates the chosen Tiles and
// Padded, one array for both, and nothing per candidate depth, on strict
// and relaxed inputs alike (5×3000 admits no strict tiling).
func TestPickAllocatesOnlyItsChoice(t *testing.T) {
	c := DefaultConfig
	c.MicroM, c.MicroN = 8, 4
	for _, dims := range [][]int{{1024, 1024}, {1024, 1024, 48}, {439, 1062}, {5, 3000}} {
		if n := testing.AllocsPerRun(20, func() { c.Pick(dims...) }); n != 1 {
			t.Errorf("Pick(%v): %v allocations, want 1 (Tiles and Padded)", dims, n)
		}
	}
}
