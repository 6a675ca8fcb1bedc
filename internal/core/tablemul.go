package core

import (
	"repro/internal/sched"
)

// This file is the recursive engine behind every fast algorithm: the
// paper's Strassen, Winograd and space-conserving Strassen and the
// rectangular ⟨m,k,n⟩ family are all coefficient tables (table.go) run
// here. One level of recursion is: split the three operands' tile grids
// M×K / K×N / M×N ways, materialize the U/V block combinations (through
// the pool-parallel element-wise streams exec.ew2/ew3), recurse into
// the R products, and scatter them into C along W.
//
// A level runs in one of two shapes, Benson–Ballard's BFS and DFS,
// chosen from the plan alone — the grid side against the serial cutoff,
// and the table — never from how busy the pool is, so the time, the
// footprint and the span of a call are functions of its plan:
//
//   - BFS, where the level spawns (exec.par): scratch for all R
//     products, the pre-additions spawned together, the products
//     spawned together, then the C blocks' post-addition chains.
//   - DFS, below the serial cutoff and at every level of a depthFirst
//     table: the products run one after another through a single
//     reused S/T/P scratch trio with the post-additions interspersed.
//     The frame is closure-free, so the serial region allocates nothing.
//
// register fixes the order every C block and W aux receives its terms
// in, so the two shapes produce the same bits (the determinism test
// pins it). Arena reservations charge BFS at every level of a table
// that is not depthFirst (the maximum); its DFS levels use less.

// tableGrid extracts the three grid extents of a conforming block trio:
// A is gm×gk tiles, B is gk×gn, C is gm×gn.
func tableGrid(C, A Mat) (gm, gk, gn int) {
	return C.tiles, A.gridC(), C.gridC()
}

// tableMul computes C += A·B by tb. The recursion descends the table
// while the grid divides by ⟨M,K,N⟩; the driver's geometry (mixed-radix
// M^l·2^d grids on canonical storage, plain 2^d on the recursive
// layouts) guarantees that when it stops the remaining grid is a square
// power of two, which is handed to tb.Base. ⟨2,2,2⟩ tables are
// self-similar on the power-of-two grid and keep descending to
// FastCutoff.
func (e *exec) tableMul(c *sched.Ctx, tb *Table, C, A, B Mat) {
	if c.Cancelled() {
		return
	}
	gm, gk, gn := tableGrid(C, A)
	if gm == 1 && gk == 1 && gn == 1 {
		e.leafMul(c, C, A, B)
		return
	}
	if tb.quad() {
		if gm <= e.fastCutoff {
			e.mul(c, tb.Base, C, A, B)
			return
		}
	} else {
		// A rectangular table never descends on tiled storage (the
		// curves' 2^d grids don't divide by odd factors), and on
		// canonical storage it stops when the table levels are exhausted
		// and the grid has collapsed to a square power of two.
		if C.tiledStore() || (gm == gk && gk == gn && gm&(gm-1) == 0) {
			e.mul(c, tb.Base, C, A, B)
			return
		}
		if gm%tb.M != 0 || gk%tb.K != 0 || gn%tb.N != 0 {
			panic("core: table recursion on non-divisible grid")
		}
	}
	if e.par(max(gm, gk, gn)) && !tb.depthFirst {
		e.tableBFS(c, tb, C, A, B)
		return
	}
	e.tableDFS(c, tb, C, A, B)
}

// materialize computes dst = Σ row over blocks in rowPasses' passes:
// the first pair of terms fuses into one three-operand pass when the
// signs allow; remaining terms accumulate.
func (e *exec) materialize(c *sched.Ctx, dst Mat, row []tableTerm, blocks []Mat) {
	i := 1
	if fusesPair(row) {
		a, b := blocks[row[0].idx], blocks[row[1].idx]
		switch {
		case row[0].c == -1:
			e.ew3(c, dst, b, a, vSub)
		case row[1].c == -1:
			e.ew3(c, dst, a, b, vSub)
		default:
			e.ew3(c, dst, a, b, vAdd)
		}
		i = 2
	} else if row[0].c == 1 {
		e.ew2(c, dst, blocks[row[0].idx], vCopy)
	} else {
		e.ew2(c, dst, blocks[row[0].idx], vNeg)
	}
	accountAdd(c, dst)
	for ; i < len(row); i++ {
		if ewCancelled(c) {
			return
		}
		if row[i].c == 1 {
			e.ew2(c, dst, blocks[row[i].idx], vAcc)
		} else {
			e.ew2(c, dst, blocks[row[i].idx], vDec)
		}
		accountAdd(c, dst)
	}
}

// splitBlocks fills the three operand block arrays for one table level.
func splitBlocks(tb *Table, C, A, B Mat, ab, bb, cb []Mat) {
	for i := 0; i < tb.M; i++ {
		for j := 0; j < tb.K; j++ {
			ab[i*tb.K+j] = A.subGrid(i, j, tb.M, tb.K)
		}
	}
	for j := 0; j < tb.K; j++ {
		for l := 0; l < tb.N; l++ {
			bb[j*tb.N+l] = B.subGrid(j, l, tb.K, tb.N)
		}
	}
	for i := 0; i < tb.M; i++ {
		for l := 0; l < tb.N; l++ {
			cb[i*tb.N+l] = C.subGrid(i, l, tb.M, tb.N)
		}
	}
}

// materializeAux fills the schedule's aux operand blocks (entries of
// blocks beyond base) in definition order; each aux row may reference
// base blocks and earlier aux. The calls are sequential — schedule
// rows form dependency chains — but every pass still spreads across
// the pool through ew2/ew3.
func (e *exec) materializeAux(c *sched.Ctx, aux [][]tableTerm, base int, blocks []Mat) {
	for j, row := range aux {
		if ewCancelled(c) {
			return
		}
		e.materialize(c, blocks[base+j], row, blocks)
	}
}

// tableBFS is the breadth-first level: scratch for every product, the
// pre-additions spawned together (one task per operand row), all R
// recursive products spawned together, then the per-C-block
// post-addition chains (disjoint destinations) spawned together.
// Schedule aux blocks are materialized once per level, before the
// per-product rows that reference them; Table.depth is this shape's
// critical path.
func (e *exec) tableBFS(c *sched.Ctx, tb *Table, C, A, B Mat) {
	ab := make([]Mat, tb.M*tb.K+len(tb.AuxU))
	bb := make([]Mat, tb.K*tb.N+len(tb.AuxV))
	cb := make([]Mat, tb.M*tb.N)
	splitBlocks(tb, C, A, B, ab, bb, cb)

	st, top := e.ar.mark(c)
	defer e.ar.release(st, top)
	for j := range tb.AuxU {
		ab[tb.M*tb.K+j] = e.newTemp(c, ab[0])
	}
	for j := range tb.AuxV {
		bb[tb.K*tb.N+j] = e.newTemp(c, bb[0])
	}
	e.materializeAux(c, tb.AuxU, tb.M*tb.K, ab)
	e.materializeAux(c, tb.AuxV, tb.K*tb.N, bb)
	if c.Cancelled() {
		return
	}
	aop := make([]Mat, tb.R)
	bop := make([]Mat, tb.R)
	p := make([]Mat, tb.R)
	pre := make([]func(*sched.Ctx), 0, tb.preA+tb.preB)
	for r := 0; r < tb.R; r++ {
		if c.Cancelled() {
			return
		}
		r := r
		if needsTemp(tb.U[r]) {
			aop[r] = e.newTemp(c, ab[0])
			pre = append(pre, func(c *sched.Ctx) { e.materialize(c, aop[r], tb.U[r], ab) })
		} else {
			aop[r] = ab[tb.U[r][0].idx]
		}
		if needsTemp(tb.V[r]) {
			bop[r] = e.newTemp(c, bb[0])
			pre = append(pre, func(c *sched.Ctx) { e.materialize(c, bop[r], tb.V[r], bb) })
		} else {
			bop[r] = bb[tb.V[r][0].idx]
		}
		p[r] = e.newTemp(c, cb[0])
	}
	c.Parallel(pre...)
	if c.Cancelled() {
		return
	}
	prod := make([]func(*sched.Ctx), tb.R)
	for r := 0; r < tb.R; r++ {
		r := r
		// Arena memory is dirty; each product zeroes its destination
		// inside its own task (a parallel memset for free).
		prod[r] = func(c *sched.Ctx) {
			matZero(p[r])
			e.tableMul(c, tb, p[r], aop[r], bop[r])
		}
	}
	c.Parallel(prod...)
	if c.Cancelled() {
		return
	}
	if len(tb.AuxW) > 0 {
		// The shared post-addition chains (Winograd's U2/U3): with every
		// product live, each aux is one fused pass over its sources.
		pext := make([]Mat, tb.R+len(tb.AuxW))
		copy(pext, p)
		for j := range tb.AuxW {
			pext[tb.R+j] = e.newTemp(c, cb[0])
		}
		e.materializeAux(c, tb.AuxW, tb.R, pext)
		if c.Cancelled() {
			return
		}
		p = pext
	}
	post := make([]func(*sched.Ctx), 0, tb.M*tb.N)
	for t := range tb.W {
		if len(tb.W[t]) == 0 {
			continue
		}
		t := t
		post = append(post, func(c *sched.Ctx) {
			dst := cb[t]
			for _, term := range tb.W[t] {
				if ewCancelled(c) {
					return
				}
				if term.c == 1 {
					e.ew2(c, dst, p[term.idx], vAcc)
				} else {
					e.ew2(c, dst, p[term.idx], vDec)
				}
				accountAdd(c, dst)
			}
		})
	}
	c.Parallel(post...)
}

// tableDFS is the depth-first level: one reused S/T/P scratch trio, the
// R products run in order with their post-additions interspersed —
// Section 5's space-conserving shape, for any table. The frame is
// closure-free so escape analysis keeps the block descriptors on the
// stack: the serial region allocates nothing.
func (e *exec) tableDFS(c *sched.Ctx, tb *Table, C, A, B Mat) {
	var abuf, bbuf, cbuf [tableMaxBlocks]Mat // base blocks + schedule aux; register enforces the bound
	ab := abuf[:tb.M*tb.K+len(tb.AuxU)]
	bb := bbuf[:tb.K*tb.N+len(tb.AuxV)]
	cb := cbuf[:tb.M*tb.N]
	splitBlocks(tb, C, A, B, ab, bb, cb)

	st, top := e.ar.mark(c)
	defer e.ar.release(st, top)
	for j := range tb.AuxU {
		ab[tb.M*tb.K+j] = e.newTemp(c, ab[0])
	}
	for j := range tb.AuxV {
		bb[tb.K*tb.N+j] = e.newTemp(c, bb[0])
	}
	// W-aux accumulators collect their product terms as the products
	// stream past the one P buffer; the first touch overwrites the
	// dirty arena block (a move, not an accounted add) and later terms
	// accumulate, so the add count matches the BFS fused passes.
	var wauxBuf [tableMaxWAux]Mat
	var touchedBuf [tableMaxWAux]bool
	waux := wauxBuf[:len(tb.AuxW)]
	touched := touchedBuf[:len(tb.AuxW)]
	for j := range waux {
		waux[j] = e.newTemp(c, cb[0])
	}
	var sa, sb Mat
	if tb.preA > 0 {
		sa = e.newTemp(c, ab[0])
	}
	if tb.preB > 0 {
		sb = e.newTemp(c, bb[0])
	}
	p := e.newTemp(c, cb[0])
	if c.Cancelled() {
		return
	}
	e.materializeAux(c, tb.AuxU, tb.M*tb.K, ab)
	e.materializeAux(c, tb.AuxV, tb.K*tb.N, bb)
	for r := 0; r < tb.R; r++ {
		if c.Cancelled() {
			return
		}
		aop, bop := sa, sb
		if needsTemp(tb.U[r]) {
			e.materialize(c, sa, tb.U[r], ab)
		} else {
			aop = ab[tb.U[r][0].idx]
		}
		if needsTemp(tb.V[r]) {
			e.materialize(c, sb, tb.V[r], bb)
		} else {
			bop = bb[tb.V[r][0].idx]
		}
		if ewCancelled(c) {
			return
		}
		matZero(p)
		e.tableMul(c, tb, p, aop, bop)
		// Scatter the product into its destinations immediately (W
		// transposed), so the one P buffer is free for the next product.
		for _, term := range tb.WT[r] {
			if ewCancelled(c) {
				return
			}
			e.tableScatter(c, p, term, cb, waux, touched, tb.M*tb.N)
		}
	}
	// Resolve the W-aux chains: every aux is complete once all R
	// products have streamed past (earlier aux feeding later ones
	// resolve first, in definition order), so each flows on to its C
	// rows and downstream aux.
	for j := range tb.AuxW {
		for _, term := range tb.auxWScatter[j] {
			if ewCancelled(c) {
				return
			}
			e.tableScatter(c, waux[j], term, cb, waux, touched, tb.M*tb.N)
		}
	}
}

// tableScatter adds src into one scatter target: a real C block
// (always accumulated — C carries the caller's data) or a W-aux
// accumulator, whose first touch overwrites the dirty arena block.
// The overwrite is data movement rather than arithmetic, so only
// accumulating passes account an add — keeping the accounted work
// identical between the BFS and DFS evaluations of the same schedule.
func (e *exec) tableScatter(c *sched.Ctx, src Mat, term tableTerm, cb, waux []Mat, touched []bool, mn int) {
	if term.idx < mn {
		if term.c == 1 {
			e.ew2(c, cb[term.idx], src, vAcc)
		} else {
			e.ew2(c, cb[term.idx], src, vDec)
		}
		accountAdd(c, cb[term.idx])
		return
	}
	j := term.idx - mn
	if !touched[j] {
		touched[j] = true
		if term.c == 1 {
			e.ew2(c, waux[j], src, vCopy)
		} else {
			e.ew2(c, waux[j], src, vNeg)
		}
		return
	}
	if term.c == 1 {
		e.ew2(c, waux[j], src, vAcc)
	} else {
		e.ew2(c, waux[j], src, vDec)
	}
	accountAdd(c, waux[j])
}
