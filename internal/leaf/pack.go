package leaf

// The register-blocked kernels read their operands in place (packedMul);
// what they copy is the fringe (and a strided A, s.pk). The rows past a
// tile's last full block become one zero-padded block of the chain's
// last family (packA: block[p*MR+r] = A[i0+r, p], rows past m zero), the
// columns past its last four one zero-padded k×4 block of B, and the C
// those blocks accumulate into is a scratch block, a copy of C's, copied
// back. A leaf whose shape is whole blocks copies nothing.

// Scratch holds the per-worker fringe buffers of the register-blocked
// kernels. Buffers grow on demand and are retained across calls, so a
// worker that multiplies same-sized leaves (the steady state of the
// recursive algorithms) never allocates after its first leaf call. The
// zero value is ready to use.
type Scratch struct {
	pa []float64 // the fringe rows of A, zero-padded to one MR×k block
	pb []float64 // the fringe columns of B, zero-padded to one k×4 block
	pc []float64 // the block of C a fringe block accumulates into
	pk []float64 // a strided A's full-block rows, packed by the panels
}

// fringeC returns s.pc as an ld×w block that a fringe block accumulates
// into: its leading rows×cols C's values, zero elsewhere.
func (s *Scratch) fringeC(ld, w, rows, cols int, c []float64, ldc int) []float64 {
	s.pc = grow(s.pc, ld*w)
	clear(s.pc)
	for j := 0; j < cols; j++ {
		copy(s.pc[j*ld:j*ld+rows], c[j*ldc:j*ldc+rows])
	}
	return s.pc
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are overwritten by the caller.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// packA copies the m rows of A (m ≤ mr, column-major, leading dimension
// lda, k columns) into dst as one mr×k block at leading dimension mr,
// zero past row m. dst must hold mr·k elements.
func packA(mr, m, k int, a []float64, lda int, dst []float64) {
	for p := 0; p < k; p++ {
		d := dst[p*mr : p*mr+mr]
		copy(d, a[p*lda:p*lda+m])
		clear(d[m:])
	}
}
