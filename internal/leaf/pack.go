package leaf

// Packing turns the column-major operands of a leaf call into the panel
// formats the register-blocked micro-kernels consume:
//
//   - A (m×k, leading dimension lda) becomes ⌈m/MR⌉ row panels. Panel pi
//     holds rows [pi·MR, pi·MR+MR) of every column, interleaved so that
//     the micro-kernel reads MR consecutive elements per k step:
//     panel[p*MR+r] = A[pi*MR+r, p]. Rows past m are zero padding.
//   - B (k×n, leading dimension ldb) becomes ⌈n/NR⌉ column panels with
//     panel[p*NR+c] = B[p, pj*NR+c], columns past n zero padded.
//
// After packing, every k step of the micro-kernel touches exactly MR+NR
// contiguous doubles, independent of the original leading dimensions —
// this is what turns the memory-bound strided A walk of Unrolled4 into a
// streaming access pattern. When an operand is already a contiguous
// recursive-layout tile (lda == m, ldb == k) the packed kernels skip this
// step entirely; see packedMul.

// Scratch holds the per-worker packing buffers of the packed kernels.
// Buffers grow on demand and are retained across calls, so a worker that
// multiplies same-sized leaves (the steady state of the recursive
// algorithms) never allocates after its first leaf call. The zero value
// is ready to use.
type Scratch struct {
	pa []float64 // A packed into MR row panels
	pb []float64 // B packed into NR column panels
	pc []float64 // the zeroed block of C a fringe block accumulates into
}

// zeroC returns n zeroed elements of s.pc.
func (s *Scratch) zeroC(n int) []float64 {
	s.pc = grow(s.pc, n)
	clear(s.pc)
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

// packA packs A (m×k, column-major, leading dimension lda) into MR row
// panels in dst, zero-padding the last panel past row m. dst must hold
// ⌈m/mr⌉·mr·k elements.
func packA(mr, m, k int, a []float64, lda int, dst []float64) {
	for i0 := 0; i0 < m; i0 += mr {
		rows := mr
		if m-i0 < mr {
			rows = m - i0
		}
		panel := dst[(i0/mr)*mr*k:]
		for p := 0; p < k; p++ {
			src := a[p*lda+i0 : p*lda+i0+rows]
			d := panel[p*mr : p*mr+mr]
			copy(d, src)
			for r := rows; r < mr; r++ {
				d[r] = 0
			}
		}
	}
}

// packB packs B (k×n, column-major, leading dimension ldb) into NR
// column panels in dst, zero-padding the last panel past column n. dst
// must hold ⌈n/nr⌉·nr·k elements. The source is read column-by-column
// (unit stride); the interleaved writes stay within one resident panel.
func packB(nr, k, n int, b []float64, ldb int, dst []float64) {
	for j0 := 0; j0 < n; j0 += nr {
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		panel := dst[(j0/nr)*nr*k:]
		for c := 0; c < cols; c++ {
			src := b[(j0+c)*ldb : (j0+c)*ldb+k]
			for p := 0; p < k; p++ {
				panel[p*nr+c] = src[p]
			}
		}
		if cols < nr {
			for p := 0; p < k; p++ {
				for c := cols; c < nr; c++ {
					panel[p*nr+c] = 0
				}
			}
		}
	}
}
