// Package trace reproduces the algorithmic locality-of-reference
// analysis of Figure 1 of the paper: for each element of C = A·B it
// computes exactly which elements of A and of B the algorithm reads,
// under the standard, Strassen, and Winograd recursions — the engine's
// own ⟨2,2,2⟩ coefficient tables — carried to the element level.
//
// The computation is symbolic: every intermediate quantity carries the
// set of A-elements and B-elements it transitively depends on. A
// recursive multiplication unions the dependency sets of its operands
// into the product; additions union element-wise. For n ≤ 8 the sets
// fit in a single uint64 bitmap per operand.
package trace

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/core"
)

// Dep is the dependency set of one scalar value: bitmaps over the n×n
// elements of A and of B (bit i*n+j marks element (i,j)).
type Dep struct {
	A, B uint64
}

func (d Dep) union(e Dep) Dep {
	return Dep{A: d.A | e.A, B: d.B | e.B}
}

// operandBits selects the bitmap for one operand: 'A' or 'B'.
func (d Dep) operandBits(operand byte) uint64 {
	if operand == 'B' {
		return d.B
	}
	return d.A
}

// depMat is an n×n matrix of dependency sets with quadrant views.
type depMat struct {
	d      [][]Dep // full backing grid
	i0, j0 int
	n      int
}

func newDepMat(n int) depMat {
	g := make([][]Dep, n)
	for i := range g {
		g[i] = make([]Dep, n)
	}
	return depMat{d: g, n: n}
}

func (m depMat) at(i, j int) *Dep {
	return &m.d[m.i0+i][m.j0+j]
}

// quads returns the quadrant views in the tables' block order: 11, 12,
// 21, 22.
func (m depMat) quads() []depMat {
	h := m.n / 2
	q := func(i, j int) depMat { return depMat{d: m.d, i0: m.i0 + i*h, j0: m.j0 + j*h, n: h} }
	return []depMat{q(0, 0), q(0, 1), q(1, 0), q(1, 1)}
}

// acc unions src element-wise into dst (dst += src, dst −= src, …: for
// dependency purposes every addition is a union).
func acc(dst, src depMat) {
	for i := 0; i < dst.n; i++ {
		for j := 0; j < dst.n; j++ {
			*dst.at(i, j) = dst.at(i, j).union(*src.at(i, j))
		}
	}
}

// sum is the combination a table row makes of blocks, signs dropped.
func sum[T interface{ Index() int }](row []T, blocks []depMat) depMat {
	s := newDepMat(blocks[0].n)
	for _, t := range row {
		acc(s, blocks[t.Index()])
	}
	return s
}

// extend appends a table's schedule aux to the blocks they combine, in
// definition order: each may read the base blocks and earlier aux, and
// is materialised before anything that reads it — what the engine does,
// so that "reads" stays what the engine reads.
func extend[T interface{ Index() int }](blocks []depMat, aux [][]T) []depMat {
	for _, row := range aux {
		blocks = append(blocks, sum(row, blocks))
	}
	return blocks
}

// mul runs one ⟨2,2,2⟩ coefficient table symbolically, to the element
// level: C ∪= A·B. It is the engine's evaluation (core's tablemul.go) on
// dependency sets: the U and V combinations of the operands' quadrants,
// the R recursive products, the W combinations into C's.
func mul(tb *core.Table, C, A, B depMat) {
	if C.n == 1 {
		*C.at(0, 0) = C.at(0, 0).union(A.at(0, 0).union(*B.at(0, 0)))
		return
	}
	ab, bb := extend(A.quads(), tb.AuxU), extend(B.quads(), tb.AuxV)
	p := make([]depMat, tb.R)
	for r := range p {
		p[r] = newDepMat(C.n / 2)
		mul(tb, p[r], sum(tb.U[r], ab), sum(tb.V[r], bb))
	}
	p = extend(p, tb.AuxW)
	for t, c := range C.quads() {
		acc(c, sum(tb.W[t], p))
	}
}

// Table returns the registered ⟨2,2,2⟩ coefficient table behind alg —
// Standard's is Standard8's, the same eight products accumulated in
// place — or nil for an algorithm that has none.
func Table(alg core.Alg) *core.Table {
	name := alg.String()
	if alg == core.Standard {
		name = core.Standard8.String()
	}
	for _, tb := range core.Tables() {
		if tb.Name == name {
			return tb
		}
	}
	return nil
}

// Reads computes, for every element (i, j) of C, the dependency sets of
// the chosen algorithm — any with a ⟨2,2,2⟩ table — on an n×n problem (n
// a power of two, n ≤ 8). The returned grid is indexed [i][j].
func Reads(alg core.Alg, n int) [][]Dep {
	if n <= 0 || n > 8 || n&(n-1) != 0 {
		panic("trace: n must be a power of two, at most 8")
	}
	tb := Table(alg)
	if tb == nil {
		panic("trace: unknown algorithm")
	}
	A, B, C := newDepMat(n), newDepMat(n), newDepMat(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			A.at(i, j).A = 1 << uint(i*n+j)
			B.at(i, j).B = 1 << uint(i*n+j)
		}
	}
	mul(tb, C, A, B)
	return C.d
}

// Count returns the number of elements in a bitmap.
func Count(bitmap uint64) int {
	return bits.OnesCount64(bitmap)
}

// Render draws the Figure 1 dot-grid for one operand: an n×n grid of
// boxes (one per element of C), each containing an n×n grid of dots
// marking the elements of A (operand 'A') or B (operand 'B') read to
// compute it.
func Render(deps [][]Dep, operand byte) string {
	n := len(deps)
	var sb strings.Builder
	fmt.Fprintf(&sb, "elements of %c read to compute each element of C (%dx%d):\n", operand, n, n)
	for bi := 0; bi < n; bi++ {
		for ri := 0; ri < n; ri++ { // row of dots inside the box row
			for bj := 0; bj < n; bj++ {
				b := deps[bi][bj].operandBits(operand)
				for rj := 0; rj < n; rj++ {
					if b&(1<<uint(ri*n+rj)) != 0 {
						sb.WriteByte('*')
					} else {
						sb.WriteByte('.')
					}
				}
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
