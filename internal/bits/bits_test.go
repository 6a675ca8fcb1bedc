package bits

import (
	"testing"
	"testing/quick"
)

func TestSpreadSmall(t *testing.T) {
	cases := []struct {
		in   uint32
		want uint64
	}{
		{0b0, 0b0},
		{0b1, 0b1},
		{0b10, 0b100},
		{0b11, 0b101},
		{0b101, 0b10001},
		{0b111, 0b10101},
		{0xFFFF, 0x55555555},
		{0xFFFFFFFF, 0x5555555555555555},
	}
	for _, c := range cases {
		if got := Spread(c.in); got != c.want {
			t.Errorf("Spread(%b) = %b, want %b", c.in, got, c.want)
		}
	}
}

func TestCompactInvertsSpread(t *testing.T) {
	if err := quick.Check(func(x uint32) bool {
		return Compact(Spread(x)) == x
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveSmall(t *testing.T) {
	// u ⋈ v puts u's bits in the odd (more significant) positions.
	cases := []struct {
		u, v uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 0b10},
		{0, 1, 0b01},
		{1, 1, 0b11},
		{0b11, 0b00, 0b1010},
		{0b10, 0b01, 0b1001},
		{0b111, 0b000, 0b101010},
	}
	for _, c := range cases {
		if got := Interleave(c.u, c.v); got != c.want {
			t.Errorf("Interleave(%b,%b) = %b, want %b", c.u, c.v, got, c.want)
		}
	}
}

func TestDeinterleaveInvertsInterleave(t *testing.T) {
	if err := quick.Check(func(u, v uint32) bool {
		a, b := Deinterleave(Interleave(u, v))
		return a == u && b == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayKnownSequence(t *testing.T) {
	// The classic 3-bit reflected Gray code sequence.
	want := []uint32{0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100}
	for i, w := range want {
		if got := Gray(uint32(i)); got != w {
			t.Errorf("Gray(%d) = %03b, want %03b", i, got, w)
		}
	}
}

func TestGrayAdjacentDifferByOneBit(t *testing.T) {
	for i := uint32(0); i < 4096; i++ {
		diff := Gray(i) ^ Gray(i+1)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("Gray(%d) and Gray(%d) differ in %b (not exactly one bit)", i, i+1, diff)
		}
	}
}

func TestGrayInverse(t *testing.T) {
	if err := quick.Check(func(i uint32) bool {
		return GrayInverse(Gray(i)) == i && Gray(GrayInverse(i)) == i
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestGray64Inverse(t *testing.T) {
	if err := quick.Check(func(i uint64) bool {
		return GrayInverse64(Gray64(i)) == i
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestGray64MatchesGray32OnSmallValues(t *testing.T) {
	for i := uint32(0); i < 1<<16; i++ {
		if uint64(Gray(i)) != Gray64(uint64(i)) {
			t.Fatalf("Gray mismatch at %d", i)
		}
	}
}

func TestPair(t *testing.T) {
	i, j := uint32(0b1100), uint32(0b1010)
	want := []uint8{0b00, 0b01, 0b10, 0b11} // k = 0..3
	for k, w := range want {
		if got := Pair(i, j, uint(k)); got != w {
			t.Errorf("Pair(%b,%b,%d) = %b, want %b", i, j, k, got, w)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint32]uint{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10, 1025: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, x := range []int{1, 2, 4, 8, 1 << 20} {
		if !IsPow2(x) {
			t.Errorf("IsPow2(%d) = false", x)
		}
	}
	for _, x := range []int{0, -1, -4, 3, 6, 12, 1<<20 + 1} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true", x)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := [][3]int{{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}}
	for _, c := range cases {
		if got := CeilDiv(c[0], c[1]); got != c[2] {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func BenchmarkInterleave(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Interleave(uint32(i), uint32(i>>1))
	}
	_ = sink
}

func BenchmarkGrayInverse64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += GrayInverse64(uint64(i) * 0x9E3779B97F4A7C15)
	}
	_ = sink
}
