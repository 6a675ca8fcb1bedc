// Package leaf provides the leaf-level matrix multiplication kernels that
// run when the recursive algorithms of the paper reach a t_R × t_C tile.
//
// The paper's experimental setup (Section 5) could not link the vendor
// dgemm under Cilk and instead used "a C version of a 6-loop tiled matrix
// multiplication routine with the innermost accumulation loop unrolled
// four-way". This package reproduces that kernel (Unrolled4) together
// with a deliberately naive kernel and a register-blocked kernel that
// stands in for the vendor BLAS in the Figure 7 experiment (see DESIGN.md
// for the substitution rationale).
//
// Every kernel computes C += A·B on column-major operands with explicit
// leading dimensions, so the same kernel serves both the canonical
// layouts (where a leaf tile is a view into the full matrix with leading
// dimension n) and the recursive layouts (where a leaf tile is contiguous
// with leading dimension t_R). This distinction — leading dimension n
// versus t_R — is exactly the memory-system effect the paper studies.
package leaf

import (
	"fmt"
	"sort"
)

// Kernel computes C += A·B, where A is m×k with leading dimension lda,
// B is k×n with leading dimension ldb, and C is m×n with leading
// dimension ldc, all column-major.
type Kernel func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

// Naive is the textbook i-j-k triple loop with no unrolling and
// element-at-a-time addressing. It anchors the slow end of the Figure 7
// kernel-quality comparison.
func Naive(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := c[j*ldc+i]
			for p := 0; p < k; p++ {
				sum += a[p*lda+i] * b[j*ldb+p]
			}
			c[j*ldc+i] = sum
		}
	}
}

// Unrolled4 is the paper's leaf kernel: the innermost accumulation (k)
// loop is unrolled four-way. Loop order is j-i-k so that the unrolled
// accumulation runs down a row of A and a column of B; column-major A
// makes the A accesses strided, exactly as in the original C routine.
func Unrolled4(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		bcol := b[j*ldb : j*ldb+k]
		ccol := c[j*ldc : j*ldc+m]
		for i := 0; i < m; i++ {
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+4 <= k; p += 4 {
				s0 += a[p*lda+i] * bcol[p]
				s1 += a[(p+1)*lda+i] * bcol[p+1]
				s2 += a[(p+2)*lda+i] * bcol[p+2]
				s3 += a[(p+3)*lda+i] * bcol[p+3]
			}
			for ; p < k; p++ {
				s0 += a[p*lda+i] * bcol[p]
			}
			ccol[i] += (s0 + s1) + (s2 + s3)
		}
	}
}

// Axpy is a column-oriented j-k-i kernel: for each column of C it
// accumulates scaled columns of A. On column-major data every inner-loop
// access is unit-stride, which is the idiom native BLAS implementations
// of the era used for the unblocked case.
func Axpy(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		ccol := c[j*ldc : j*ldc+m]
		for p := 0; p < k; p++ {
			bpj := b[j*ldb+p]
			if bpj == 0 {
				continue
			}
			acol := a[p*lda : p*lda+m]
			for i := range ccol {
				ccol[i] += acol[i] * bpj
			}
		}
	}
}

// Blocked4x4 is a register-blocked kernel holding a 4×4 sub-block of C in
// scalars while streaming through k. It is the fastest pure-Go kernel in
// this package and stands in for the vendor-supplied native dgemm in the
// Figure 7 reproduction.
func Blocked4x4(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if k <= 0 {
		// k = 0 is a no-op, and the fringe hand-off below would slice
		// into the (empty) A at a nonzero row offset.
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*ldb:]
		b1 := b[(j+1)*ldb:]
		b2 := b[(j+2)*ldb:]
		b3 := b[(j+3)*ldb:]
		c0 := c[j*ldc:]
		c1 := c[(j+1)*ldc:]
		c2 := c[(j+2)*ldc:]
		c3 := c[(j+3)*ldc:]
		i := 0
		for ; i+4 <= m; i += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for p := 0; p < k; p++ {
				ap := a[p*lda+i:]
				a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
				v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
				c00 += a0 * v0
				c10 += a1 * v0
				c20 += a2 * v0
				c30 += a3 * v0
				c01 += a0 * v1
				c11 += a1 * v1
				c21 += a2 * v1
				c31 += a3 * v1
				c02 += a0 * v2
				c12 += a1 * v2
				c22 += a2 * v2
				c32 += a3 * v2
				c03 += a0 * v3
				c13 += a1 * v3
				c23 += a2 * v3
				c33 += a3 * v3
			}
			c0[i] += c00
			c0[i+1] += c10
			c0[i+2] += c20
			c0[i+3] += c30
			c1[i] += c01
			c1[i+1] += c11
			c1[i+2] += c21
			c1[i+3] += c31
			c2[i] += c02
			c2[i+1] += c12
			c2[i+2] += c22
			c2[i+3] += c32
			c3[i] += c03
			c3[i+1] += c13
			c3[i+2] += c23
			c3[i+3] += c33
		}
		if i < m {
			Axpy(m-i, 4, k, a[i:], lda, b[j*ldb:], ldb, c[j*ldc+i:], ldc)
		}
	}
	if j < n {
		Axpy(m, n-j, k, a, lda, b[j*ldb:], ldb, c[j*ldc:], ldc)
	}
}

// Impl is one registered kernel implementation. Kern is always usable
// through the plain Kernel interface; Scratch is the same kernel taking
// caller-provided buffers for its padded fringe blocks, so the recursion
// in internal/core can hand it per-worker scratch (see ScratchKernel); a
// leaf of whole blocks touches none of them. Store is Scratch's store
// form, C ← A·B: it never reads C, and its bits are Scratch's on a C of
// +0. Balance is the family's constant in the fast-algorithm crossover
// (FastCutoff), in leaf flops per byte the element-wise passes stream.
// Chained marks a kernel each of whose product elements, fringe
// included, is its C (+0 for Store), then ascending-k FMAs: a product
// split along k over calls, or a region of tiles multiplied in one call,
// has the bits of the tile loop, whatever the blocking. Every
// register-blocked family declares it; the plain kernels, which sum
// apart from C and add, do not.
type Impl struct {
	Name           string
	Kern           Kernel
	Scratch, Store ScratchKernel
	Balance        float64
	Chained        bool
}

// plain is the entry of a kernel that is not register-blocked: it needs
// no scratch, and its store form clears C and accumulates.
func plain(name string, kern Kernel, balance float64) Impl {
	return Impl{Name: name, Kern: kern, Balance: balance,
		Scratch: func(_ *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
			kern(m, n, k, a, lda, b, ldb, c, ldc)
		},
		Store: func(_ *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
			for j := range n {
				clear(c[j*ldc : j*ldc+m])
			}
			kern(m, n, k, a, lda, b, ldb, c, ldc)
		}}
}

// kernels is the registry of named kernels used by the command-line
// tools, the default selection (Auto), and the Figure 7 experiment. The pure-Go
// kernels below are always present; the architecture-specific assembly
// kernels ("avx2", "avx512" on amd64, "neon" on arm64) are added at init by
// simd.go when the CPU supports them and RECMAT_NOSIMD is unset.
var kernels = map[string]Impl{
	"naive":     plain("naive", Naive, 0.125),
	"unrolled4": plain("unrolled4", Unrolled4, 0.25),
	"axpy":      plain("axpy", Axpy, 0.25),
	"blocked":   plain("blocked", Blocked4x4, 0.4),
	"packed8x4": family("packed8x4", microGo8, 0.45),
}

// Names returns the registered kernel names in deterministic (sorted)
// order.
func Names() []string {
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the kernel registered under name.
func Get(name string) (Kernel, error) {
	impl, err := GetImpl(name)
	if err != nil {
		return nil, err
	}
	return impl.Kern, nil
}

// GetImpl returns the full implementation record registered under name.
func GetImpl(name string) (Impl, error) {
	impl, ok := kernels[name]
	if !ok {
		return Impl{}, fmt.Errorf("leaf: unknown kernel %q", name)
	}
	return impl, nil
}

// Default is the kernel the paper's experiments use unless overridden:
// the four-way-unrolled routine. The driver's default is Auto's pick
// for the host; Default remains the fixed-kernel
// baseline.
var Default Kernel = Unrolled4
