package leaf

import "sync"

// The packed kernels fix NR = 4 B columns per micro-tile; MR is 4, 8 or
// 16 A rows depending on the family. Tile sizes that are multiples of
// these avoid the scalar fringe path entirely (tile.Config can be told
// to prefer such sizes; see Config.MicroM/MicroN).
const (
	// MicroM is the A-row count tile selection aligns to. It is not the
	// largest block height any more: the 16-row AVX-512 family runs the
	// 8-row remainder of a tile through the 8-row body, so a multiple of
	// 8 still keeps every row in assembly, and the tiles picked — and so
	// the results — are the same whichever family runs them.
	MicroM = 8
	// MicroN is the B-column count of the packed micro-kernels.
	MicroN = 4
)

// ScratchKernel is a kernel that uses caller-provided scratch storage for
// its packing buffers instead of managing its own. The recursive driver
// calls this form with a per-worker Scratch so that steady-state leaf
// multiplication performs no allocation at all.
type ScratchKernel func(s *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

// microImpl describes one register-blocked micro-kernel family: the
// MR-row block height plus the storage-variant inner loops the packing
// driver dispatches to. The pure-Go family (microGo8) and the
// architecture-specific assembly families (simd_*.go) all plug into
// the same packedMul/directMul driver, so every kernel shares one
// packing, fringe, and fast-path policy.
type microImpl struct {
	mr int
	// pp: C[0:mr,0:4] += Apanel·Bpanel on packed panels (pack.go format).
	pp func(kc int, pa, pb []float64, c []float64, ldc int)
	// A family reads contiguous tiles in place through one of two entries.
	// dd does one block: C[0:mr,0:4] += A·B, a positioned at the block's
	// first row with column stride lda, b0..b3 the four B columns. panel
	// does every full block of a tile in one call: C[0:rows,0:n] += A·B
	// with rows a multiple of mr, n of 4, and the loops over blocks
	// inside it.
	dd    func(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int)
	panel func(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
	// dd4, when non-nil, is a half-height (4-row) direct kernel used for
	// the row fringe that still fits a 4×4 micro-tile (mr ≥ 8 only).
	dd4 func(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int)
	// rem, when non-nil, is the shorter family that takes the rows left
	// after the last full mr-row block; it has a panel entry when this
	// family has.
	rem *microImpl
}

// microGo8 is the pure-Go micro-kernel family behind packed8x4.
var microGo8 = &microImpl{mr: 8, pp: micro8x4pp, dd: micro8x4dd, dd4: micro4x4dd}

// packedMul is the shared body of the packed kernels: C += A·B through
// MR×4 register-blocked micro-tiles of the mk family.
//
// Fast path: when both operands are contiguous column-major tiles
// (lda == m and ldb == k) — precisely what the recursive layouts produce
// at every leaf — packing is skipped and the micro-kernels read the tiles
// in place. Otherwise (canonical layouts, where a leaf is a strided view
// into the full matrix) both operands are packed once into s, after which
// every k step of the inner loop is contiguous.
func packedMul(s *Scratch, mk *microImpl, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	const nr = MicroN
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if lda == m && ldb == k {
		directMul(mk, m, n, k, a, b, c, ldc)
		return
	}
	np := (n + nr - 1) / nr * nr
	s.pb = grow(s.pb, np*k)
	packB(nr, k, n, b, ldb, s.pb)
	for i0 := 0; i0 < m; mk = mk.rem {
		rows := m - i0
		if mk.rem != nil {
			rows -= rows % mk.mr // full blocks only; mk.rem takes the rest
		}
		if rows > 0 {
			packedRows(s, mk, rows, n, k, a[i0:], lda, c[i0:], ldc)
			i0 += rows
		}
	}
}

// packedRows packs rows rows of A into mk's panels and multiplies them
// into C against the B panels already in s.pb.
func packedRows(s *Scratch, mk *microImpl, rows, n, k int, a []float64, lda int, c []float64, ldc int) {
	const nr = MicroN
	mr := mk.mr
	s.pa = grow(s.pa, (rows+mr-1)/mr*mr*k)
	packA(mr, rows, k, a, lda, s.pa)
	for j0 := 0; j0 < n; j0 += nr {
		pbp := s.pb[(j0/nr)*nr*k:]
		ncur := min(nr, n-j0)
		for i0 := 0; i0 < rows; i0 += mr {
			pap := s.pa[(i0/mr)*mr*k:]
			mcur := min(mr, rows-i0)
			cc := c[j0*ldc+i0:]
			if mcur == mr && ncur == nr {
				mk.pp(k, pap, pbp, cc, ldc)
			} else {
				microEdge(mcur, ncur, k, pap, mr, pbp, nr, 1, cc, ldc)
			}
		}
	}
}

// directMul runs the micro-kernels in place on contiguous tiles
// (lda == m, ldb == k) — no packing, no scratch: the full blocks first,
// then the row fringe beside them and the column fringe past them.
func directMul(mk *microImpl, m, n, k int, a, b, c []float64, ldc int) {
	const nr = MicroN
	nf := n - n%nr // columns in full blocks
	i0 := 0        // rows in full blocks
	switch {
	case nf == 0:
	case mk.panel != nil:
		for fam := mk; fam != nil; fam = fam.rem {
			if rows := (m - i0) / fam.mr * fam.mr; rows > 0 {
				fam.panel(rows, nf, k, a[i0:], m, b, k, c[i0:], ldc)
				i0 += rows
			}
		}
	default:
		i0 = m - m%mk.mr
		for j0 := 0; j0 < nf; j0 += nr {
			b0, b1, b2, b3 := bcols(b, j0, k)
			for i := 0; i < i0; i += mk.mr {
				mk.dd(k, a[i:], m, b0, b1, b2, b3, c[j0*ldc+i:], ldc)
			}
		}
	}
	for j0 := 0; i0 < m && j0 < nf; j0 += nr {
		i := i0
		if mk.dd4 != nil && i+4 <= m { // fringe that still fits a 4×4 micro-tile
			b0, b1, b2, b3 := bcols(b, j0, k)
			mk.dd4(k, a[i:], m, b0, b1, b2, b3, c[j0*ldc+i:], ldc)
			i += 4
		}
		if i < m {
			microEdge(m-i, nr, k, a[i:], m, b[j0*k:], 1, k, c[j0*ldc+i:], ldc)
		}
	}
	if nf < n {
		microEdge(m, n-nf, k, a, m, b[nf*k:], 1, k, c[nf*ldc:], ldc)
	}
}

// bcols returns columns j0..j0+3 of a contiguous k-row B.
func bcols(b []float64, j0, k int) (b0, b1, b2, b3 []float64) {
	return b[j0*k : j0*k+k], b[(j0+1)*k : (j0+1)*k+k], b[(j0+2)*k : (j0+2)*k+k], b[(j0+3)*k : (j0+3)*k+k]
}

// scratchPool backs the plain-Kernel adapters below. sync.Pool keeps one
// Scratch per P in steady state, so repeated calls through the plain
// Kernel interface are also allocation-free after warm-up; the recursive
// driver bypasses this pool entirely via the ScratchKernel form.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// kernelPair builds the plain-Kernel (pooled scratch) and ScratchKernel
// forms of the packedMul driver over one micro-kernel family.
func kernelPair(mk *microImpl) (Kernel, ScratchKernel) {
	kern := func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		s := scratchPool.Get().(*Scratch)
		packedMul(s, mk, m, n, k, a, lda, b, ldb, c, ldc)
		scratchPool.Put(s)
	}
	skern := func(s *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		packedMul(s, mk, m, n, k, a, lda, b, ldb, c, ldc)
	}
	return kern, skern
}

// PackedScratch8x4 is the 8×4 packed kernel in ScratchKernel form.
func PackedScratch8x4(s *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	packedMul(s, microGo8, m, n, k, a, lda, b, ldb, c, ldc)
}

// Packed8x4 is the packed-panel kernel with an 8×4 register block,
// self-managing its scratch through a pool.
func Packed8x4(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	s := scratchPool.Get().(*Scratch)
	packedMul(s, microGo8, m, n, k, a, lda, b, ldb, c, ldc)
	scratchPool.Put(s)
}

// ScratchAt returns the Scratch stored in slot, installing a fresh one on
// first use. slot is typically the executing worker's local slot
// (sched.Ctx.WorkerSlot), making the packed kernels allocation-free in
// steady state without any locking.
func ScratchAt(slot *any) *Scratch {
	if s, ok := (*slot).(*Scratch); ok {
		return s
	}
	s := new(Scratch)
	*slot = s
	return s
}
