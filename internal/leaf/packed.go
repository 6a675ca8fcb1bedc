package leaf

import "sync"

// The register-blocked kernels fix NR = 4 B columns per micro-tile; MR
// is 4, 8 or 16 A rows depending on the family. Tile sizes that are
// multiples of these run no padded fringe block (tile.Config can be told
// to prefer such sizes; see Config.MicroM/MicroN).
const (
	// MicroM is the A-row count tile selection aligns to. It is not the
	// largest block height any more: the 16-row AVX-512 family runs the
	// 8-row remainder of a tile through the 8-row body, so a multiple of
	// 8 still keeps every lane of every block on a real row, and the
	// tiles picked — and so the results — are the same whichever family
	// runs them.
	MicroM = 8
	// MicroN is the B-column count of the register-blocked micro-kernels.
	MicroN = 4
)

// ScratchKernel is a kernel that uses caller-provided scratch storage for
// its fringe buffers instead of managing its own. The recursion in
// internal/core calls this form with a per-worker Scratch so that
// steady-state leaf multiplication performs no allocation at all.
type ScratchKernel func(s *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

// microImpl describes one register-blocked micro-kernel family: the
// MR-row block height plus the in-place inner loops packedMul dispatches
// to. The pure-Go family (microGo8) and the architecture-specific
// assembly families (simd_*.go) all plug into the same packedMul body,
// so every kernel shares one leaf path and one fringe policy.
type microImpl struct {
	mr int
	// A family reads its operands in place through one of two entries.
	// dd does one block: C[0:mr,0:4] += A·B, a positioned at the block's
	// first row with column stride lda, b0..b3 the four B columns. panel
	// does every full block of a tile in one call: C[0:rows,0:n] += A·B
	// with rows a multiple of mr, n of 4, and the loops over blocks
	// inside it.
	dd    func(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int)
	panel func(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
	// rem, when non-nil, is the shorter family that takes the rows left
	// after the last full mr-row block; it has a panel entry when this
	// family has.
	rem *microImpl
}

// microGo8 is the pure-Go micro-kernel family behind packed8x4.
var microGo8 = &microImpl{mr: 8, dd: micro8x4dd}

// packedMul is the one body of the register-blocked kernels: C += A·B
// through MR×4 micro-tiles of the mk family, with A and B read where
// they lie — a contiguous tile of a recursive layout (lda == m,
// ldb == k) and a strided view into canonical storage alike. The full
// blocks of each family down the rem chain go straight into C; the rows
// left, fewer than the last family's mr, run as one zero-padded block of
// it (s.pa); the n%4 columns left as one zero-padded k×4 block of B
// (s.pb) against every row.
//
// The fringe — rows past the last full block, columns past the last
// four — has no loop of its own. It runs through the family's block
// body on zero-padded operands into a zeroed scratch block of C, whose
// valid part is then added to C: a zero accumulator, the products fused
// in ascending k, one add into C — per element what a scalar loop does.
func packedMul(s *Scratch, mk *microImpl, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	const nr = MicroN
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	last, i0 := mk, 0 // the chain's shortest family; rows in full blocks
	for fam := mk; fam != nil; fam = fam.rem {
		last, i0 = fam, i0+(m-i0)/fam.mr*fam.mr
	}
	mp := m // rows with the fringe padded to a block
	if i0 < m {
		mp = i0 + last.mr
		s.pa = grow(s.pa, last.mr*k)
		packA(last.mr, m-i0, k, a[i0:], lda, s.pa)
	}
	nf := n - n%nr // columns in full blocks
	if nf > 0 {
		mk.fullBlocks(m, nf, k, a, lda, b, ldb, c, ldc)
		if i0 < m {
			sc := s.zeroC(last.mr * nf)
			last.blocks(last.mr, nf, k, s.pa, last.mr, b, ldb, sc, last.mr)
			addBlock(m-i0, nf, sc, last.mr, c[i0:], ldc)
		}
	}
	if nf < n {
		s.pb = grow(s.pb, nr*k)
		for j := nf; j < n; j++ {
			copy(s.pb[(j-nf)*k:], b[j*ldb:j*ldb+k])
		}
		clear(s.pb[(n-nf)*k:])
		sc := s.zeroC(mp * nr)
		mk.fullBlocks(m, nr, k, a, lda, s.pb, k, sc, mp)
		if i0 < m {
			last.blocks(last.mr, nr, k, s.pa, last.mr, s.pb, k, sc[i0:], mp)
		}
		addBlock(m, n-nf, sc, mp, c[nf*ldc:], ldc)
	}
}

// fullBlocks is C[0:i0,0:n] += A·B for the i0 rows of m that fill whole
// blocks of mk's chain, each family taking what the one before left; n
// is a multiple of 4.
func (mk *microImpl) fullBlocks(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i0 := 0; mk != nil; mk = mk.rem {
		if rows := (m - i0) / mk.mr * mk.mr; rows > 0 {
			mk.blocks(rows, n, k, a[i0:], lda, b, ldb, c[i0:], ldc)
			i0 += rows
		}
	}
}

// blocks is the family's in-place entry: C[0:rows,0:n] += A·B, rows a
// positive multiple of mr, n of 4.
func (mk *microImpl) blocks(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if mk.panel != nil {
		mk.panel(rows, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	for j0 := 0; j0 < n; j0 += MicroN {
		b0, b1, b2, b3 := b[j0*ldb:j0*ldb+k], b[(j0+1)*ldb:(j0+1)*ldb+k], b[(j0+2)*ldb:(j0+2)*ldb+k], b[(j0+3)*ldb:(j0+3)*ldb+k]
		for i := 0; i < rows; i += mk.mr {
			mk.dd(k, a[i:], lda, b0, b1, b2, b3, c[j0*ldc+i:], ldc)
		}
	}
}

// addBlock adds the leading rows×cols of the scratch block sc to C.
func addBlock(rows, cols int, sc []float64, ldsc int, c []float64, ldc int) {
	for j := 0; j < cols; j++ {
		dst := c[j*ldc : j*ldc+rows]
		for i, v := range sc[j*ldsc : j*ldsc+rows] {
			dst[i] += v
		}
	}
}

// scratchPool backs the plain-Kernel adapters below. sync.Pool keeps one
// Scratch per P in steady state, so repeated calls through the plain
// Kernel interface are also allocation-free after warm-up; the recursive
// driver bypasses this pool entirely via the ScratchKernel form.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// kernelPair builds the plain-Kernel (pooled scratch) and ScratchKernel
// forms of packedMul over one micro-kernel family.
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

// PackedScratch8x4 is Packed8x4 in ScratchKernel form.
func PackedScratch8x4(s *Scratch, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	packedMul(s, microGo8, m, n, k, a, lda, b, ldb, c, ldc)
}

// Packed8x4 is the pure-Go kernel with an 8×4 register block,
// self-managing its fringe scratch through a pool.
func Packed8x4(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	s := scratchPool.Get().(*Scratch)
	packedMul(s, microGo8, m, n, k, a, lda, b, ldb, c, ldc)
	scratchPool.Put(s)
}

// ScratchAt returns the Scratch stored in slot, installing a fresh one on
// first use. slot is typically the executing worker's local slot
// (sched.Ctx.WorkerSlot), making the register-blocked kernels
// allocation-free in steady state without any locking.
func ScratchAt(slot *any) *Scratch {
	if s, ok := (*slot).(*Scratch); ok {
		return s
	}
	s := new(Scratch)
	*slot = s
	return s
}
