package trace

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStandardReadsExactlyRowAndColumn(t *testing.T) {
	// The standard algorithm has perfect algorithmic locality: C(i,j)
	// reads exactly row i of A and column j of B (Figure 1(a)).
	for _, n := range []int{2, 4, 8} {
		deps := Reads(core.Standard, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var wantA, wantB uint64
				for k := 0; k < n; k++ {
					wantA |= 1 << uint(i*n+k)
					wantB |= 1 << uint(k*n+j)
				}
				if deps[i][j].A != wantA {
					t.Fatalf("n=%d C(%d,%d): A reads %064b, want row %d", n, i, j, deps[i][j].A, i)
				}
				if deps[i][j].B != wantB {
					t.Fatalf("n=%d C(%d,%d): B reads wrong, want column %d", n, i, j, j)
				}
			}
		}
	}
}

func TestFastAlgorithmsReadSupersets(t *testing.T) {
	// Strassen and Winograd must read at least the row/column the
	// product mathematically depends on, and strictly more for some
	// elements (the worse algorithmic locality of Figure 1(b,c)).
	n := 8
	std := Reads(core.Standard, n)
	for _, alg := range []core.Alg{core.Strassen, core.Winograd} {
		fast := Reads(alg, n)
		strict := false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fast[i][j].A&std[i][j].A != std[i][j].A ||
					fast[i][j].B&std[i][j].B != std[i][j].B {
					t.Fatalf("%v: C(%d,%d) misses mathematically required reads", alg, i, j)
				}
				if Count(fast[i][j].A) > n || Count(fast[i][j].B) > n {
					strict = true
				}
			}
		}
		if !strict {
			t.Errorf("%v: no element reads more than the standard algorithm", alg)
		}
	}
}

func TestStrassenWorstLocalityOnDiagonal(t *testing.T) {
	// The paper observes the access-pattern blowup "along the main
	// diagonal for Strassen's algorithm": diagonal elements of C read
	// the maximum number of A elements.
	n := 8
	deps := Reads(core.Strassen, n)
	max := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c := Count(deps[i][j].A); c > max {
				max = c
			}
		}
	}
	for i := 0; i < n; i++ {
		if Count(deps[i][i].A) != max {
			t.Errorf("diagonal element (%d,%d) reads %d of A, max is %d",
				i, i, Count(deps[i][i].A), max)
		}
	}
	if max <= n {
		t.Errorf("Strassen max A-reads = %d, expected > %d", max, n)
	}
}

func TestWinogradWorstLocalityAtCorners(t *testing.T) {
	// The paper singles out elements (0,7) and (7,0) for Winograd.
	n := 8
	deps := Reads(core.Winograd, n)
	max := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c := Count(deps[i][j].A) + Count(deps[i][j].B); c > max {
				max = c
			}
		}
	}
	corner07 := Count(deps[0][7].A) + Count(deps[0][7].B)
	corner70 := Count(deps[7][0].A) + Count(deps[7][0].B)
	if corner07 != max && corner70 != max {
		t.Errorf("corners read %d and %d, max is %d — expected a corner to be worst",
			corner07, corner70, max)
	}
}

func TestWinogradReadsNoMoreThanStrassenTotal(t *testing.T) {
	// Sanity: both fast algorithms touch every element of A and B
	// overall (the union over all C elements is everything).
	n := 8
	for _, alg := range []core.Alg{core.Strassen, core.Winograd} {
		var allA, allB uint64
		deps := Reads(alg, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				allA |= deps[i][j].A
				allB |= deps[i][j].B
			}
		}
		if Count(allA) != n*n || Count(allB) != n*n {
			t.Errorf("%v: union of reads covers %d/%d of A, %d/%d of B",
				alg, Count(allA), n*n, Count(allB), n*n)
		}
	}
}

// readsHash is the FNV-1a hash of the A and B dependency bitmaps of
// Reads(alg, n), C's elements in row order, little-endian.
func readsHash(alg core.Alg, n int) uint64 {
	h := fnv.New64a()
	for _, row := range Reads(alg, n) {
		for _, d := range row {
			for _, v := range []uint64{d.A, d.B} {
				var b [8]byte
				for i := range b {
					b[i] = byte(v >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// TestReadsMatchHandCodedRecursions: the dependency sets read off the
// engine's coefficient tables are those of the three hand-written
// symbolic recursions (Figure 1(a), (b), (c)) this package carried until
// the tables replaced them; the hashes were recorded from that code.
func TestReadsMatchHandCodedRecursions(t *testing.T) {
	for _, tc := range []struct {
		alg  core.Alg
		n    int
		want uint64
	}{
		{core.Standard, 2, 0xc4a4203e2df2d525}, {core.Standard, 4, 0x169335b028251765}, {core.Standard, 8, 0x486357aa41717be5},
		{core.Strassen, 2, 0x353db65d45c83805}, {core.Strassen, 4, 0xeb77064cc18a40d1}, {core.Strassen, 8, 0x62027f72a188463d},
		{core.Winograd, 2, 0x91484ca4ea4bf5e3}, {core.Winograd, 4, 0x940542afe127e955}, {core.Winograd, 8, 0x3792a9a66cd21818},
	} {
		if got := readsHash(tc.alg, tc.n); got != tc.want {
			t.Errorf("%v n=%d: reads hash %#x, the hand-coded recursion's was %#x", tc.alg, tc.n, got, tc.want)
		}
	}
}

// TestStandard8SameAsStandard: an algorithm that is another's table under
// a different evaluation order reads what it reads — Standard8 is
// Standard's eight products, StrassenLowMem Strassen's table depth-first
// — and every algorithm the engine registers can be traced, auto not.
func TestStandard8SameAsStandard(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		if readsHash(core.Standard8, n) != readsHash(core.Standard, n) {
			t.Errorf("n=%d: Standard8 dependency sets differ from Standard", n)
		}
		if readsHash(core.StrassenLowMem, n) != readsHash(core.Strassen, n) {
			t.Errorf("n=%d: StrassenLowMem dependency sets differ from Strassen", n)
		}
	}
	traced := 0
	for _, alg := range core.Algs {
		if Table(alg) != nil {
			traced++
			Reads(alg, 4)
		}
	}
	if traced != 5 || traced != len(core.Algs) || Table(core.AlgAuto) != nil {
		t.Errorf("%d of %d algorithms have a table to trace, want all five and not auto", traced, len(core.Algs))
	}
}

func TestRender(t *testing.T) {
	deps := Reads(core.Standard, 2)
	out := Render(deps, 'A')
	if !strings.Contains(out, "**") || !strings.Contains(out, "..") {
		t.Fatalf("render missing dot rows:\n%s", out)
	}
	outB := Render(deps, 'B')
	if out == outB {
		t.Fatal("A and B renders should differ")
	}
}

func TestReadsRejectsBadN(t *testing.T) {
	for _, n := range []int{0, 3, 16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d should panic", n)
				}
			}()
			Reads(core.Standard, n)
		}()
	}
}

func TestCount(t *testing.T) {
	if Count(0) != 0 || Count(1) != 1 || Count(0b1011) != 3 || Count(^uint64(0)) != 64 {
		t.Fatal("popcount wrong")
	}
}
