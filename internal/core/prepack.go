package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tile"
)

// This file implements prepacked operand plans: the third layer of the
// amortized-conversion design. Section 4's accounting charges the
// column-major ⇄ recursive-layout conversion to every call; a Prepacked
// plan pays it once and serves arbitrarily many multiplications — the
// serving pattern (fixed weights, streaming right-hand sides) where the
// conversion of the large reused operand would otherwise dominate the
// small per-call flop count. Benson & Ballard (SPAA 2015) amortize
// operand packing the same way across repeated fast multiplications.

// Prepacked is an operand converted to a recursive layout once, for use
// in many GEMMPrepacked calls. It stores the operand's wide/lean
// segment decomposition (Figure 3) and one Tiled per segment pair, all
// blocks sharing a single (curve, depth, tile-shape) geometry so that
// any two conforming plans can multiply without re-packing.
//
// A plan is immutable after creation and safe for concurrent use; it
// stays valid until Release returns its buffers to the recycling pool.
type Prepacked struct {
	// Curve, D, TR, TC are the shared geometry of every block: tiles
	// are TR×TC on a 2^D × 2^D grid ordered along Curve.
	Curve  layout.Curve
	D      uint
	TR, TC int
	// Rows and Cols are the logical extents of op(src) — transposition
	// requested at Prepack time is already folded into the layout.
	Rows, Cols int
	// RSegs and CSegs are the wide/lean segment decompositions of the
	// row and column dimensions; blocks[i*len(CSegs)+j] covers
	// (RSegs[i], CSegs[j]).
	RSegs, CSegs []tile.Seg
	blocks       []Tiled
	released     bool
	// hdr is the blocks' full header.
	hdr Tiled
	// src, when non-nil, marks a deferred plan: it holds no blocks, and
	// segment (i, j) of op(src) is packed by each C block that multiplies
	// it, when it does (mat).
	src   *matrix.Dense
	trans bool
}

// Prepack converts op(src) into a recursive-layout plan: segments from
// the same wide/lean decomposition GEMM would apply, one packed Tiled
// per segment pair, the requested transposition folded into the pack.
// Options select the curve, tile configuration, and splitting behavior;
// algorithm and kernel choices are deferred to GEMMPrepacked. The
// canonical layouts are rejected — they have no conversion to amortize.
//
// Two independently prepacked plans conform only when tile selection
// lands on the same inner-dimension geometry for both; for a streaming
// second operand use PrepackConforming, which adopts the first plan's
// geometry by construction.
func Prepack(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense, trans bool) (p *Prepacked, err error) {
	cl, err := enter(ctx, pool, opts, "Prepack")
	defer leave(cl, &p, &err)
	if err != nil {
		return nil, err
	}
	o := cl.o
	r, c, err := cl.prepackShape(src, trans)
	if err != nil {
		return nil, err
	}
	rs := []tile.Seg{{Off: 0, Len: r}}
	cs := []tile.Seg{{Off: 0, Len: c}}
	if !o.DisableSplit && o.ForceTile == 0 {
		// The same split a direct GEMM of this operand against its
		// partners would make: serving plans name the partners' free
		// dimension (PartnerDim); without it the unknown third dimension
		// is taken as the row extent (a squat peer). Conformance with the
		// partner plan is validated at multiply time. The pick stays
		// two-dimensional: a plan does not know its partner's tiles.
		partner := o.PartnerDim
		if partner <= 0 {
			partner = r
		}
		rs, cs, _ = o.Tile.SplitDims(r, c, partner)
	}
	d, t, err := choose(o, maxSegLen(rs), maxSegLen(cs))
	if err != nil {
		return nil, err
	}
	p = newPlan(Tiled{Curve: o.Curve, D: d, TR: t[0], TC: t[1]}, rs, cs)
	return cl.resident(ctx, p, func(e *exec, c *sched.Ctx) { p.fill(e, c, nil, src, trans, false) })
}

// PackTiled converts src into one tiled matrix on opts.Curve, the
// operand form MulTiledCtx multiplies, on the depth and tiles a plan of
// its shape gets.
func PackTiled(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense) (t *Tiled, err error) {
	cl, err := enter(ctx, pool, opts, "Pack")
	defer leave(cl, &t, &err)
	if err != nil {
		return nil, err
	}
	o := cl.o
	r, c, err := cl.prepackShape(src, false)
	if err != nil {
		return nil, err
	}
	d, tiles, err := choose(o, r, c)
	if err != nil {
		return nil, err
	}
	t = NewTiled(o.Curve, d, tiles[0], tiles[1], r, c)
	if err := cl.pass(ctx, func(e *exec, c *sched.Ctx) { t.pack(e, c, src, false, 1) }); err != nil {
		return nil, err
	}
	return t, nil
}

// PrepackConforming packs op(src) as the right-hand operand of a plan
// that already fixed the inner dimension's geometry: depth, row tiling,
// and row segments are taken from like (like's columns are the shared
// k dimension), so GEMMPrepacked(…, like, result, …) conforms by
// construction. This is the entry point for the serving pattern — the
// big fixed operand is Prepacked once, each streaming right-hand side
// is PrepackConforming'd against it. The segments and tiles are the
// planner's for like's operand against this one (planOf), so options
// that product would be refused for — an unknown KernelName — are
// refused here.
func PrepackConforming(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense, trans bool, like *Prepacked) (p *Prepacked, err error) {
	cl, err := enter(ctx, pool, opts, "PrepackConforming")
	defer leave(cl, &p, &err)
	if err != nil {
		return nil, err
	}
	if like == nil || like.released {
		return nil, fmt.Errorf("%w: PrepackConforming against a nil or released plan", ErrDimension)
	}
	cl.o.Curve = like.Curve
	o := cl.o
	r, c, err := cl.prepackShape(src, trans)
	if err != nil {
		return nil, err
	}
	if r != like.Cols {
		return nil, fmt.Errorf("%w: operand has %d rows, plan's inner dimension is %d", ErrDimension, r, like.Cols)
	}
	// The plan of like's operand against this one, of which only B's side
	// is used: its segments and tiles.
	pl, err := planOf(o, 0, given{pa: like, resident: true}, like.Rows, like.Cols, c)
	if err != nil {
		return nil, err
	}
	p = newPlan(pl.g.hdrB(), pl.ks, pl.ns)
	return cl.resident(ctx, p, func(e *exec, c *sched.Ctx) { p.fill(e, c, nil, src, trans, false) })
}

// conformSegs cuts the free dimension, of extent c, of a right-hand
// side for like — exactly as a direct GEMM of like's operand against it
// would split it; the inner dimension's segments are like's, whatever
// partners it was cut for — and picks the tile width on like's depth.
func conformSegs(o Options, like *Prepacked, c int) (cs []tile.Seg, tc int, err error) {
	cs = []tile.Seg{{Off: 0, Len: c}}
	if !o.DisableSplit && o.ForceTile == 0 {
		_, _, cs = o.Tile.SplitDims(like.Rows, like.Cols, c)
	}
	tc = conformTile(o.Tile, maxSegLen(cs), like.D)
	_, _, _, err = paddedDims(like.D, like.TR, like.TC, tc)
	return cs, tc, err
}

// prepackShape validates the preconditions of an entry point that packs
// one operand and returns the logical op(src) extents. It is the one
// refusal of the canonical layouts, by the entry points that keep an
// operand packed beyond one product — a plan, a tiled operand: canonical
// storage has no conversion to amortize.
func (cl *call) prepackShape(src *matrix.Dense, trans bool) (r, c int, err error) {
	if !cl.o.Curve.Recursive() {
		return 0, 0, fmt.Errorf("core: %s requires a recursive layout, got %v", cl.what, cl.o.Curve)
	}
	if src == nil {
		return 0, 0, fmt.Errorf("%w: %s of a nil operand", ErrDimension, cl.what)
	}
	r, c = src.Rows, src.Cols
	if trans {
		r, c = c, r
	}
	if r == 0 || c == 0 {
		return 0, 0, fmt.Errorf("%w: %s of empty %dx%d operand", ErrDimension, cl.what, r, c)
	}
	return r, c, nil
}

func maxSegLen(segs []tile.Seg) (m int) {
	for _, s := range segs {
		m = max(m, s.Len)
	}
	return m
}

// newPlan is the empty plan of hdr's geometry over rs×cs segments.
func newPlan(hdr Tiled, rs, cs []tile.Seg) *Prepacked { return new(Prepacked).repack(hdr, rs, cs) }

// repack empties p into the plan of hdr's geometry over rs×cs segments,
// for fill or fillTransposed to fill. A runner's transient plan keeps the
// block headers and buffers of the members before it, regrown only for
// more segments or a larger size class, so a steady-state wave allocates
// nothing per member.
func (p *Prepacked) repack(hdr Tiled, rs, cs []tile.Seg) *Prepacked {
	*p = Prepacked{Curve: hdr.Curve, D: hdr.D, TR: hdr.TR, TC: hdr.TC, Rows: segsLen(rs), Cols: segsLen(cs),
		RSegs: rs, CSegs: cs, hdr: hdr, blocks: p.blocks}
	return p
}

// repackTransposed empties q into the plan of pᵀ: mirrored tiles and
// segments.
func (q *Prepacked) repackTransposed(p *Prepacked) *Prepacked {
	return q.repack(Tiled{Curve: p.Curve, D: p.D, TR: p.TC, TC: p.TR}, p.CSegs, p.RSegs)
}

// resident is the run of an entry point that returns a plan, p, which
// fill fills. A run that fails gives p's buffers back.
func (cl *call) resident(ctx context.Context, p *Prepacked, fill func(e *exec, c *sched.Ctx)) (*Prepacked, error) {
	if err := cl.pass(ctx, fill); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// fill packs op(src), unscaled, into a new plan: every segment pair
// once, into a pooled buffer, here — or, deferred, nothing yet: each
// block that multiplies a segment packs it when it runs. The nesting
// rule is the block wave's (asWave): enough segments pack as one task
// each, serial inside; fewer pack in turn, each spread over its tiles.
// stats, when non-nil, is charged the conversion (a transient per-call
// plan). A cancelled run leaves the plan partly filled; its holder
// releases it either way.
func (p *Prepacked) fill(e *exec, c *sched.Ctx, stats *Stats, src *matrix.Dense, trans, deferred bool) {
	if deferred {
		p.src, p.trans = src, trans
		return
	}
	p.fit(stats)
	nc := len(p.CSegs)
	if e.serialCutoff < noSpawn && asWave(len(p.blocks), c.Workers()) {
		se := *e
		se.serialCutoff = noSpawn
		fns := make([]func(*sched.Ctx), len(p.blocks))
		for b := range p.blocks {
			fns[b] = func(c *sched.Ctx) { p.packSeg(&se, c, &p.blocks[b], src, trans, b/nc, b%nc) }
		}
		c.Parallel(fns...)
	} else {
		for b := 0; b < len(p.blocks) && !c.Cancelled(); b++ {
			p.packSeg(e, c, &p.blocks[b], src, trans, b/nc, b%nc)
		}
	}
	if stats != nil {
		stats.ConvertBytes += p.Bytes()
	}
}

// fit sizes p's blocks to its segments on its header.
func (p *Prepacked) fit(stats *Stats) {
	nc, n := len(p.CSegs), len(p.RSegs)*len(p.CSegs)
	if p.blocks = p.blocks[:cap(p.blocks)]; n > len(p.blocks) {
		p.blocks = append(p.blocks, make([]Tiled, n-len(p.blocks))...)
	}
	p.blocks = p.blocks[:n]
	for b := range p.blocks {
		p.blocks[b].refit(stats, p.hdr, p.RSegs[b/nc].Len, p.CSegs[b%nc].Len)
	}
}

// segsLen returns the total extent a segment decomposition covers.
func segsLen(segs []tile.Seg) (n int) {
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// Block returns the packed Tiled covering (RSegs[i], CSegs[j]).
func (p *Prepacked) Block(i, j int) *Tiled { return &p.blocks[i*len(p.CSegs)+j] }

// packSeg packs segment (i, j) of op(src), unscaled, into t, which the
// caller has fitted to it — the one way a plan's segment is filled: up
// front (fill), into a wave member's transient plans (repack), or at
// first touch by the block that multiplies it (mat). The pack is a span
// on its runner's track.
func (p *Prepacked) packSeg(e *exec, c *sched.Ctx, t *Tiled, src *matrix.Dense, trans bool, i, j int) {
	t0 := time.Now()
	// op(src)'s segment is the stored matrix's with the roles swapped.
	r, cs := p.RSegs[i], p.CSegs[j]
	if trans {
		r, cs = cs, r
	}
	t.pack(e, c, src.View(r.Off, cs.Off, r.Len, cs.Len), trans, 1)
	if e.tr != nil {
		e.tr.Span(c.WorkerID(), obs.KindPack, t0, time.Since(t0), int64(t.tiles()))
	}
}

// mat returns segment (i, j) as the recursion reads it: the resident
// block or, on a deferred plan, op(src)'s segment brought by the block
// consuming it — read where it lies, at the caller's leading dimension,
// when the block runs the standard recursion (std) and the segment lies
// (a copy pays only if reused: wave.body defers one small block's
// operands here too); else packed now into buf, billed to ws.
func (p *Prepacked) mat(c *sched.Ctx, ws *waveWS, buf *Tiled, i, j int, std bool) Mat {
	if p.src == nil {
		return p.Block(i, j).Mat()
	}
	ws.stats.PackDeferred++
	if r, cs := p.RSegs[i], p.CSegs[j]; std && lies(p.hdr, p.trans, r, cs) {
		return inPlace(p.hdr, p.src, r, cs)
	}
	t0 := time.Now()
	buf.refit(&ws.stats, p.hdr, p.RSegs[i].Len, p.CSegs[j].Len)
	p.packSeg(&ws.e, c, buf, p.src, p.trans, i, j)
	ws.stats.ConvertIn += time.Since(t0)
	ws.stats.ConvertBytes += 8 * int64(len(buf.Data))
	return buf.Mat()
}

// lies reports whether segment (r, c) of op(src), tiled as hdr, can be
// read where it lies: untransposed, and filling its padded extent.
func lies(hdr Tiled, trans bool, r, c tile.Seg) bool {
	return !trans && r.Len == hdr.TR<<hdr.D && c.Len == hdr.TC<<hdr.D
}

// inPlace is the canonical Mat of hdr's grid over segment (r, c) of s,
// at s's leading dimension: no copy.
func inPlace(hdr Tiled, s *matrix.Dense, r, c tile.Seg) Mat {
	return Mat{data: s.Data[c.Off*s.Stride+r.Off:], tiles: 1 << hdr.D, tr: hdr.TR, tc: hdr.TC, ld: s.Stride, curve: hdr.Curve}
}

// Bytes returns the total packed storage the plan holds.
func (p *Prepacked) Bytes() int64 {
	var n int64
	for b := range p.blocks {
		n += 8 * int64(len(p.blocks[b].Data))
	}
	return n
}

// Release returns the plan's buffers to the recycling pool. The plan
// must not be used afterwards; Release is not safe to call concurrently
// with multiplications using the plan.
func (p *Prepacked) Release() {
	if p == nil || p.released {
		return
	}
	p.released = true
	// Up to the capacity: a runner's transient plan (repack) may hold
	// buffers past the blocks its last member used.
	blocks := p.blocks[:cap(p.blocks)]
	for b := range blocks {
		releaseTiled(&blocks[b])
	}
}

// Transposed derives the plan of op(src)ᵀ entirely inside the recursive
// layout: block (i, j) of the result is the in-layout transpose of
// block (j, i), built with packTransposeOf — the column-major source is
// never re-read. One Prepack plus one Transposed is how a symmetric
// product (SYRK's α·A·Aᵀ) serves both operand slots from a single
// conversion pass.
func (p *Prepacked) Transposed(ctx context.Context, pool *sched.Pool) (q *Prepacked, err error) {
	cl, err := enter(ctx, pool, Options{}, "Transposed")
	defer leave(cl, &q, &err)
	if err != nil {
		return nil, err
	}
	if p.released {
		return nil, fmt.Errorf("%w: Transposed of a released plan", ErrDimension)
	}
	q = new(Prepacked).repackTransposed(p)
	return cl.resident(ctx, q, func(e *exec, c *sched.Ctx) { q.fillTransposed(e, c, nil, p) })
}

// fillTransposed is fill from p, whose transpose q is, in place of a
// column-major source; stats, when non-nil, is the member's (it derives
// a transient B plan from A's this way).
func (q *Prepacked) fillTransposed(e *exec, c *sched.Ctx, stats *Stats, p *Prepacked) {
	q.fit(stats)
	for i := range q.RSegs {
		for j := range q.CSegs {
			q.Block(i, j).packTransposeOf(e, c, p.Block(j, i))
		}
	}
}

// GEMMPrepacked computes C ← α·A·B + β·C where A and B are prepacked
// plans (any transposition was folded at Prepack time): GEMMCtx's member
// body with the pack step done, so a steady-state call reports
// ConvertIn ≈ 0 (a fast level's zero-fill), ConvertBytes counting only the C
// epilogue, and PackReused every operand the plans served. α = 0 β-scales
// C and plans, admits and packs nothing, as GEMMCtx does; the failure
// contract is GEMMCtx's.
//
// The plans must conform (conformPlans; ErrDimension otherwise): same
// curve and depth, pa's column tiling and segments pb's row ones. Plans
// of one Prepack call and its Transposed always conform; independently
// prepacked ones do when tile selection lands on the same depth for the
// shared dimension (the default configuration's common case). Options
// select algorithm, kernel and cutoffs; layout and tile options yield to
// the plans' geometry, and MaxResidualGrowth is not applied (the probe
// needs column-major operands).
func GEMMPrepacked(ctx context.Context, pool *sched.Pool, opts Options, alpha float64,
	pa, pb *Prepacked, beta float64, C *matrix.Dense) (stats *Stats, err error) {

	cl, err := enter(ctx, pool, opts, "GEMMPrepacked")
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	if pa == nil || pb == nil || pa.released || pb.released {
		return nil, fmt.Errorf("%w: GEMMPrepacked with a nil or released plan", ErrDimension)
	}
	if err := conform(alpha, beta, pa.Rows, pa.Cols, pb.Rows, pb.Cols, C); err != nil {
		return nil, err
	}
	if err := conformPlans(pa, pb); err != nil {
		return nil, err
	}
	// The plans arrive with the pack step done: their operands were
	// allocated once, outside this call, and are charged to the plan —
	// only the in-flight C tiles and the arena count against the budget.
	cl.o.Curve = pa.Curve
	return cl.one(ctx, &wave{gv: given{pa: pa, pb: pb, resident: true}, items: []BatchItem{{Alpha: alpha, Beta: beta, C: C}}})
}

// conformPlans is the one check that packed operands multiply as A·B —
// plans, or tiled operands as plans of one block (ConformTiled): one
// curve, one depth, and pa's column tiles and segments pb's row ones.
func conformPlans(pa, pb *Prepacked) error {
	switch {
	case pa.Curve != pb.Curve:
		return fmt.Errorf("%w: packed operands disagree on layout: %v vs %v", ErrDimension, pa.Curve, pb.Curve)
	case pa.D != pb.D || pa.TC != pb.TR:
		return fmt.Errorf("%w: packed operands do not conform on the inner dimension: "+
			"A packs k with %d-wide tiles at depth %d, B with %d-tall tiles at depth %d "+
			"(prepack the lean operand with DisableSplit, or derive one plan from the other with Transposed)",
			ErrDimension, pa.TC, pa.D, pb.TR, pb.D)
	case !slices.Equal(pa.CSegs, pb.RSegs):
		return fmt.Errorf("%w: packed operands split the inner dimension differently, %v against %v; "+
			"prepack the lean operand with DisableSplit so the shared dimension stays in one segment",
			ErrDimension, pa.CSegs, pb.RSegs)
	}
	return nil
}
