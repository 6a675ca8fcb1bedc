package leaf

import "sync"

// The packed kernels fix NR = 4 B columns per micro-tile; MR is 4, 8 or
// 16 A rows depending on the family. Tile sizes that are multiples of
// these run no padded fringe block (tile.Config can be told to prefer
// such sizes; see Config.MicroM/MicroN).
const (
	// MicroM is the A-row count tile selection aligns to. It is not the
	// largest block height any more: the 16-row AVX-512 family runs the
	// 8-row remainder of a tile through the 8-row body, so a multiple of
	// 8 still keeps every lane of every block on a real row, and the
	// tiles picked — and so the results — are the same whichever family
	// runs them.
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
	// rem, when non-nil, is the shorter family that takes the rows left
	// after the last full mr-row block; it has a panel entry when this
	// family has.
	rem *microImpl
}

// microGo8 is the pure-Go micro-kernel family behind packed8x4.
var microGo8 = &microImpl{mr: 8, pp: micro8x4pp, dd: micro8x4dd}

// packedMul is the shared body of the packed kernels: C += A·B through
// MR×4 register-blocked micro-tiles of the mk family.
//
// Fast path: when both operands are contiguous column-major tiles
// (lda == m and ldb == k) — precisely what the recursive layouts produce
// at every leaf — packing is skipped and the micro-kernels read the tiles
// in place. Otherwise (canonical layouts, where a leaf is a strided view
// into the full matrix) both operands are packed once into s, after which
// every k step of the inner loop is contiguous.
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
	if lda == m && ldb == k {
		directMul(s, mk, m, n, k, a, b, c, ldc)
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
// into C against the B panels already in s.pb. The panels are zero
// padded, so an edge block is pp into a scratch block.
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
				sc := s.zeroC(mr * nr)
				mk.pp(k, pap, pbp, sc, mr)
				addBlock(mcur, ncur, sc, mr, cc, ldc)
			}
		}
	}
}

// directMul runs the micro-kernels in place on contiguous tiles
// (lda == m, ldb == k), no packing: the full blocks of each family down
// the rem chain straight into C; the rows left, fewer than the last
// family's mr, as one zero-padded block of it (s.pa); the n%4 columns
// left as one zero-padded k×4 block of B (s.pb) against every row.
func directMul(s *Scratch, mk *microImpl, m, n, k int, a, b, c []float64, ldc int) {
	const nr = MicroN
	last, i0 := mk, 0 // the chain's shortest family; rows in full blocks
	for fam := mk; fam != nil; fam = fam.rem {
		last, i0 = fam, i0+(m-i0)/fam.mr*fam.mr
	}
	mp := m // rows with the fringe padded to a block
	if i0 < m {
		mp = i0 + last.mr
		s.pa = grow(s.pa, last.mr*k)
		packA(last.mr, m-i0, k, a[i0:], m, s.pa) // one panel: a last.mr×k tile
	}
	nf := n - n%nr // columns in full blocks
	if nf > 0 {
		mk.fullBlocks(m, nf, k, a, b, c, ldc)
		if i0 < m {
			sc := s.zeroC(last.mr * nf)
			last.blocks(last.mr, nf, k, s.pa, last.mr, b, sc, last.mr)
			addBlock(m-i0, nf, sc, last.mr, c[i0:], ldc)
		}
	}
	if nf < n {
		s.pb = grow(s.pb, nr*k)
		copy(s.pb, b[nf*k:n*k])
		clear(s.pb[(n-nf)*k:])
		sc := s.zeroC(mp * nr)
		mk.fullBlocks(m, nr, k, a, s.pb, sc, mp)
		if i0 < m {
			last.blocks(last.mr, nr, k, s.pa, last.mr, s.pb, sc[i0:], mp)
		}
		addBlock(m, n-nf, sc, mp, c[nf*ldc:], ldc)
	}
}

// fullBlocks is C[0:i0,0:n] += A·B on contiguous tiles (lda == m,
// ldb == k) for the i0 rows of m that fill whole blocks of mk's chain,
// each family taking what the one before left; n is a multiple of 4.
func (mk *microImpl) fullBlocks(m, n, k int, a, b, c []float64, ldc int) {
	for i0 := 0; mk != nil; mk = mk.rem {
		if rows := (m - i0) / mk.mr * mk.mr; rows > 0 {
			mk.blocks(rows, n, k, a[i0:], m, b, c[i0:], ldc)
			i0 += rows
		}
	}
}

// blocks is the family's contiguous-tile entry: C[0:rows,0:n] += A·B,
// rows a positive multiple of mr, n of 4, B contiguous (ldb == k).
func (mk *microImpl) blocks(rows, n, k int, a []float64, lda int, b, c []float64, ldc int) {
	if mk.panel != nil {
		mk.panel(rows, n, k, a, lda, b, k, c, ldc)
		return
	}
	for j0 := 0; j0 < n; j0 += MicroN {
		b0, b1, b2, b3 := b[j0*k:j0*k+k], b[(j0+1)*k:(j0+1)*k+k], b[(j0+2)*k:(j0+2)*k+k], b[(j0+3)*k:(j0+3)*k+k]
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
