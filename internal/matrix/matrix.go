// Package matrix provides the dense matrix substrate used throughout the
// reproduction: column-major storage with an explicit leading dimension
// (stride), sub-matrix views, element-wise kernels, and a naive reference
// GEMM used as the correctness oracle for all fast algorithms.
//
// The column-major convention with a leading dimension matches the
// Level 3 BLAS interface the paper adopts (Section 2.1): element (i, j)
// of a matrix lives at Data[j*Stride+i].
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a column-major matrix of float64 values. A Dense value may be
// a view into a larger matrix, in which case Stride exceeds Rows and the
// storage is not contiguous.
type Dense struct {
	Rows, Cols int
	// Stride is the leading dimension: the distance in elements between
	// the starts of consecutive columns. Stride >= max(Rows, 1).
	Stride int
	Data   []float64
}

// New returns a zeroed m×n matrix with contiguous storage (Stride == m).
func New(m, n int) *Dense {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", m, n))
	}
	s := m
	if s == 0 {
		s = 1
	}
	return &Dense{Rows: m, Cols: n, Stride: s, Data: make([]float64, m*n)}
}

// FromSlice wraps an existing column-major slice with leading dimension
// ld as an m×n matrix without copying. The slice must hold at least
// (n-1)*ld+m elements.
func FromSlice(data []float64, m, n, ld int) *Dense {
	if ld < m || (n > 0 && len(data) < (n-1)*ld+m) {
		panic(fmt.Sprintf("matrix: slice of %d too small for %dx%d ld=%d", len(data), m, n, ld))
	}
	return &Dense{Rows: m, Cols: n, Stride: ld, Data: data}
}

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 {
	return a.Data[j*a.Stride+i]
}

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) {
	a.Data[j*a.Stride+i] = v
}

// View returns an m×n view of a starting at (i0, j0). The view shares
// storage with a; mutations are visible through both. It is a thin
// inlinable wrapper, so a view that does not outlive its caller stays
// off the heap.
func (a *Dense) View(i0, j0, m, n int) *Dense {
	v := a.view(i0, j0, m, n)
	return &v
}

func (a *Dense) view(i0, j0, m, n int) Dense {
	if i0 < 0 || j0 < 0 || i0+m > a.Rows || j0+n > a.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d)+%dx%d exceeds %dx%d", i0, j0, m, n, a.Rows, a.Cols))
	}
	return Dense{Rows: m, Cols: n, Stride: a.Stride, Data: a.Data[j0*a.Stride+i0:]}
}

// Clone returns a newly allocated contiguous copy of a.
func (a *Dense) Clone() *Dense {
	c := New(a.Rows, a.Cols)
	c.CopyFrom(a)
	return c
}

// CopyFrom copies the contents of src into a. Dimensions must match.
func (a *Dense) CopyFrom(src *Dense) {
	if a.Rows != src.Rows || a.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy %dx%d <- %dx%d", a.Rows, a.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < a.Cols; j++ {
		copy(a.Data[j*a.Stride:j*a.Stride+a.Rows], src.Data[j*src.Stride:j*src.Stride+a.Rows])
	}
}

// Zero sets every element of a to zero.
func (a *Dense) Zero() {
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element of a to v.
func (a *Dense) Fill(v float64) {
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for i := range col {
			col[i] = v
		}
	}
}

// Scale multiplies every element of a by alpha.
func (a *Dense) Scale(alpha float64) {
	if alpha == 1 {
		return
	}
	a.ScaleCols(alpha, 0, a.Cols)
}

// ScaleCols multiplies columns [lo, hi) of a by alpha — the ranged core
// of Scale, exposed so callers with a worker pool can split the pass
// into parallel column chunks (a full-matrix β·C scale is a memory-bound
// sweep worth parallelizing above a size threshold). alpha = 0 stores
// zeros and multiplies nothing, as the reference BLAS does for β = 0: a
// NaN or Inf in a does not survive it.
func (a *Dense) ScaleCols(alpha float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		if alpha == 0 {
			clear(col)
			continue
		}
		for i := range col {
			col[i] *= alpha
		}
	}
}

// Transpose returns a newly allocated transpose of a.
func (a *Dense) Transpose() *Dense {
	t := New(a.Cols, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			t.Data[i*t.Stride+j] = a.Data[j*a.Stride+i]
		}
	}
	return t
}

// Equal reports whether a and b have the same shape and all elements
// agree within absolute tolerance tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// a and b, which must have the same shape. NaNs compare as +Inf so that
// corrupted results never pass a tolerance check.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: diff %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			d := math.Abs(a.At(i, j) - b.At(i, j))
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// MaxAbs returns the maximum absolute element of a.
func (a *Dense) MaxAbs() float64 {
	var max float64
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if d := math.Abs(a.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}

// HasNaN reports whether a contains any NaN element.
func (a *Dense) HasNaN() bool {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.IsNaN(a.At(i, j)) {
				return true
			}
		}
	}
	return false
}

// Random returns an m×n matrix with elements drawn uniformly from
// [-1, 1) using the supplied source, so that tests and benchmarks are
// reproducible.
func Random(m, n int, rng *rand.Rand) *Dense {
	a := New(m, n)
	for k := range a.Data {
		a.Data[k] = 2*rng.Float64() - 1
	}
	return a
}

// RandomSeeded returns an m×n matrix with entries in [-1, 1) generated
// by a splitmix64 stream over the seed. It is the seed→operand contract
// of the serving layer: unlike math/rand, whose NewSource runs ~600
// mixing rounds before the first draw — more work than filling a small
// serving-shaped operand — seeding here is one add, so materializing
// operands from request seeds costs only the fill itself.
func RandomSeeded(m, n int, seed int64) *Dense {
	a := New(m, n)
	SeedFill(a.Data, seed)
	return a
}

// SeedFill fills dst with the splitmix64 stream over seed — the same
// values RandomSeeded produces for a contiguous matrix, exposed so
// callers recycling buffers (the serving layer's operand pool) share
// one definition of the seed→values contract.
func SeedFill(dst []float64, seed int64) {
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

// Sequential returns an m×n matrix whose (i, j) element is i*n+j+1; its
// distinct, structured values make layout bugs (transpositions, swapped
// quadrants) show up as large, easily-localized errors in tests.
func Sequential(m, n int) *Dense {
	a := New(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, float64(i*n+j+1))
		}
	}
	return a
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// String renders small matrices for test failure messages.
func (a *Dense) String() string {
	if a.Rows > 16 || a.Cols > 16 {
		return fmt.Sprintf("Dense{%dx%d stride=%d}", a.Rows, a.Cols, a.Stride)
	}
	s := ""
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			s += fmt.Sprintf("%8.3f ", a.At(i, j))
		}
		s += "\n"
	}
	return s
}
