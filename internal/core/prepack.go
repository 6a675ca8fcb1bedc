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

// Prepack converts op(src) into a recursive-layout plan (planA): the
// plan every product with this A is cut by — a direct GEMM reads its A
// through the same quadrants — one packed Tiled per segment pair, the
// requested transposition folded into the pack.
// Options select the curve, tile configuration, and splitting behavior;
// algorithm and kernel choices are deferred to GEMMPrepacked. The
// canonical layouts are rejected — they have no conversion to amortize.
//
// Two independently prepacked plans conform only when tile selection
// lands on the same inner-dimension geometry for both; for a streaming
// second operand use PrepackConforming, which adopts the first plan's
// geometry by construction.
func Prepack(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense, trans bool) (*Prepacked, error) {
	return prepack(ctx, pool, opts, src, trans, "Prepack")
}

// Pack is Prepack of src, untransposed, as one block (DisableSplit) on
// planA's tiles: the operand Frens and Wise keep in quad-tree form
// across products (MulPrepacked).
func Pack(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense) (*Prepacked, error) {
	opts.DisableSplit = true
	return prepack(ctx, pool, opts, src, false, "Pack")
}

// prepack is Prepack's body, what naming the entry point in a refusal.
func prepack(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense, trans bool, what string) (p *Prepacked, err error) {
	cl, err := enter(ctx, pool, opts, what)
	defer leave(cl, &p, &err)
	if err != nil {
		return nil, err
	}
	r, c, err := cl.prepackShape(src, trans)
	if err != nil {
		return nil, err
	}
	rs, cs, _ := splitSegs(cl.o, r, c, r)
	p = new(Prepacked)
	if *p, err = planA(cl.o, rs, cs); err != nil {
		return nil, err
	}
	return cl.resident(ctx, p, func(e *exec, c *sched.Ctx) { p.fill(e, c, nil, src, trans, false) })
}

// planA is the plan of a left operand cut into rs×cs segments (the
// wide/lean split against a square partner): the one cut of every
// product with that A (split). Its blocks are tiled by one Pick over the
// longest segments as for that partner (rows, columns, rows), a level
// shallower when a tile is under TSweet on a grid past inPlaceSide a
// side (a smaller one is read in place and merges its tiles) and the
// shallower tiles fit; its row tile rounded up to whole register blocks
// (conformTile), its column tile, a product's k, only on an unsplit plan
// (Pack), so that two packed squares conform. Forced tiles stay exact.
func planA(o Options, rs, cs []tile.Seg) (p Prepacked, err error) {
	mr, mc := maxSegLen(rs), maxSegLen(cs)
	d, t, err := choose(o, mr, mc, mr)
	if err != nil {
		return p, err
	}
	if cfg := o.Tile; o.ForceTile == 0 {
		if 1<<d > inPlaceSide && min(t[0], t[1]) < cfg.TSweet && max(mr, mc) <= cfg.TMax<<(d-1) {
			d--
		}
		t[0], t[1] = conformTile(rs, d, cfg.MicroM, cfg.TMax), conformTile(cs, d, cfg.MicroM, cfg.TMax)
		if !o.DisableSplit {
			t[1] = conformTile(cs, d, 0, 0)
		}
	}
	return *p.repack(Tiled{Curve: o.Curve, D: d, TR: t[0], TC: t[1]}, rs, cs), nil
}

// PrepackConforming packs op(src) as the right-hand operand of a plan
// that already fixed the inner dimension's geometry: row tiling and
// segments are those of the quadrants of like's blocks (split) at the
// depth a direct GEMM would tile, so GEMMPrepacked(…, like, result, …) conforms
// by construction, at any width. This is the entry point for the
// serving pattern — the big fixed operand is Prepacked once, each
// streaming right-hand side is PrepackConforming'd against it. The
// segments and tiles are the planner's for like's operand against this
// one (planOf), so options that product would be refused for — an
// unknown KernelName — are refused here.
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
	pl, err := planOf(o, 0, given{pa: like}, like.Rows, like.Cols, c)
	if err != nil {
		return nil, err
	}
	p = newPlan(pl.g.hdrB(), pl.ks, pl.ns)
	p.Curve = like.Curve // its blocks' storage may be a panel (hdrB)
	return cl.resident(ctx, p, func(e *exec, c *sched.Ctx) { p.fill(e, c, nil, src, trans, false) })
}

// prepackShape validates the preconditions of an entry point that packs
// one operand and returns the logical op(src) extents. It is the one
// refusal of the canonical layouts, by the entry points that keep an
// operand packed beyond one product — a plan: canonical storage has no
// conversion to amortize.
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

// mat returns segment (r, cs) of a product on a depth-d grid as the
// recursion reads it: a resident block's quadrant (quads) — its Mat
// descended, orientation and all, a view and never a copy — or, on a
// deferred plan, op(src)'s segment brought by the block consuming it,
// read where it lies, at the caller's leading dimension, when the block
// runs the standard recursion (std) and the segment lies (a copy pays
// only if reused: wave.body defers one small block's operands here
// too); else packed now into buf, billed to ws.
func (p *Prepacked) mat(c *sched.Ctx, ws *waveWS, buf *Tiled, r, cs tile.Seg, d uint, std bool) Mat {
	i, j := locate(p.RSegs, r.Off), locate(p.CSegs, cs.Off)
	if l := p.D - d; p.src == nil {
		m, qi, qj := p.Block(i, j).Mat(), (r.Off-p.RSegs[i].Off)/(p.TR<<d), (cs.Off-p.CSegs[j].Off)/(p.TC<<d)
		for b := int(l) - 1; b >= 0; b-- {
			m = m.quad(qi>>b&1<<1 | qj>>b&1)
		}
		return m
	}
	ws.stats.PackDeferred++
	if std && lies(p.hdr, p.trans, r, cs) {
		return inPlace(p.hdr, p.src, r, cs)
	}
	t0 := time.Now()
	buf.refit(&ws.stats, p.hdr, r.Len, cs.Len)
	p.packSeg(&ws.e, c, buf, p.src, p.trans, i, j)
	ws.stats.ConvertIn += time.Since(t0)
	ws.stats.ConvertBytes += 8 * int64(len(buf.Data))
	return buf.Mat()
}

// locate is the index of the segment of segs that holds offset x.
func locate(segs []tile.Seg, x int) int {
	return slices.IndexFunc(segs, func(s tile.Seg) bool { return x < s.Off+s.Len })
}

// quads cuts p's row and column segments at its blocks' level-l quadrant
// edges, in order: up to 2^l a segment, a quadrant wholly in padding
// left out; ok is false when l is past p's depth or maxPosDepth.
func (p *Prepacked) quads(l uint) (rs, cs []tile.Seg, ok bool) {
	if l == 0 || l > p.D || l > maxPosDepth {
		return p.RSegs, p.CSegs, l == 0
	}
	return cut(p.RSegs, p.TR<<(p.D-l), l), cut(p.CSegs, p.TC<<(p.D-l), l), true
}

// cut splits each segment at multiples of ext, the last piece clipped.
func cut(segs []tile.Seg, ext int, l uint) []tile.Seg {
	qs := make([]tile.Seg, 0, len(segs)<<l)
	for _, s := range segs {
		for off := 0; off < s.Len; off += ext {
			qs = append(qs, tile.Seg{Off: s.Off + off, Len: min(ext, s.Len-off)})
		}
	}
	return qs
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
// The plans must conform (conformPlans; ErrDimension otherwise). Plans
// of one Prepack call and its Transposed, or PrepackConforming, always
// do; independently prepacked ones do when tile selection lands on the
// same depth for the shared dimension (the default configuration's
// common case). Options
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
	return cl.one(ctx, &wave{gv: given{pa: pa, pb: pb}, items: []BatchItem{{Alpha: alpha, Beta: beta, C: C}}})
}

// conformPlans is the one check that packed operands multiply as A·B: two
// live plans on one curve, pa's column tiles pb's row ones, pa's quadrants
// at pb's depth cutting k as pb.
func conformPlans(pa, pb *Prepacked) error {
	if pa == nil || pb == nil || pa.released || pb.released {
		return fmt.Errorf("%w: a nil or released plan", ErrDimension)
	}
	_, ks, ok := pa.quads(pa.D - pb.D)
	switch {
	case pa.Curve != pb.Curve:
		return fmt.Errorf("%w: packed operands disagree on layout: %v vs %v", ErrDimension, pa.Curve, pb.Curve)
	case !ok || pa.TC != pb.TR:
		return fmt.Errorf("%w: packed operands do not conform on the inner dimension: "+
			"A packs k with %d-wide tiles at depth %d, B with %d-tall tiles at depth %d, "+
			"which no descent into A's quadrants reaches "+
			"(pack B with PrepackConforming against A, or derive one plan from the other with Transposed)",
			ErrDimension, pa.TC, pa.D, pb.TR, pb.D)
	case !slices.Equal(ks, pb.RSegs):
		return fmt.Errorf("%w: packed operands split the inner dimension differently: "+
			"A (depth %d, read at depth %d) cuts it %v, B (depth %d) %v; pack B with PrepackConforming against A",
			ErrDimension, pa.D, pb.D, ks, pb.D, pb.RSegs)
	}
	return nil
}

// product is the empty plan of pa·pb, which conform (conformPlans): pa.TR
// × pb.TC tiles at pb's depth, over pa's quadrant row segments there ×
// pb's column segments — C block (i, j) of the product's wave.
func product(pa, pb *Prepacked) *Prepacked {
	ms, _, _ := pa.quads(pa.D - pb.D)
	return newPlan(Tiled{Curve: pa.Curve, D: pb.D, TR: pa.TR, TC: pb.TC}, ms, pb.CSegs)
}

// NewProduct returns a zeroed plan of pa·pb's product, the C MulPrepacked
// accumulates into; plans that do not multiply are ErrDimension.
func NewProduct(pa, pb *Prepacked) (*Prepacked, error) {
	if err := conformPlans(pa, pb); err != nil {
		return nil, err
	}
	pc := product(pa, pb)
	pc.fit(nil)
	for b := range pc.blocks {
		clear(pc.blocks[b].Data) // pooled buffers are dirty
	}
	return pc, nil
}

// MulPrepacked computes C += A·B entirely in the recursive layout, with
// the panic-to-error boundary of GEMMCtx: the one multiply run on
// resident plans (conformPlans) whose C is a plan of the product's
// geometry (NewProduct; ErrDimension otherwise). Each C block is
// accumulated into where it lies — no zero-fill, no epilogue, nothing
// converted — so on cancellation or failure C must be considered
// corrupt: partial quadrant products may already be in it.
func MulPrepacked(ctx context.Context, pool *sched.Pool, opts Options, C, A, B *Prepacked) (stats *Stats, err error) {
	cl, err := enter(ctx, pool, opts, "MulPrepacked")
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	if err := conformPlans(A, B); err != nil {
		return nil, err
	}
	if C == nil || C.released {
		return nil, fmt.Errorf("%w: MulPrepacked into a nil or released plan", ErrDimension)
	}
	if w := product(A, B); C.Curve != w.Curve || C.D != w.D || C.TR != w.TR || C.TC != w.TC ||
		!slices.Equal(C.RSegs, w.RSegs) || !slices.Equal(C.CSegs, w.CSegs) {
		return nil, fmt.Errorf("%w: C is %dx%d in %dx%d tiles (%v, depth %d), the product %dx%d in %dx%d tiles (%v, depth %d) cut as NewProduct cuts it",
			ErrDimension, C.Rows, C.Cols, C.TR, C.TC, C.Curve, C.D, w.Rows, w.Cols, w.TR, w.TC, w.Curve, w.D)
	}
	cl.o.Curve = A.Curve
	return cl.one(ctx, &wave{gv: given{pa: A, pb: B, pc: C}, items: []BatchItem{{Alpha: 1, Beta: 1}}})
}

// Unpack copies op(src) out of the plan into a fresh column-major
// matrix, block by block, discarding padding: the fused epilogue's walk
// storing 1·t. An entry point; pool may be nil.
func (p *Prepacked) Unpack(ctx context.Context, pool *sched.Pool) (dst *matrix.Dense, err error) {
	cl, err := enter(ctx, pool, Options{}, "Unpack")
	defer leave(cl, &dst, &err)
	if err != nil {
		return nil, err
	}
	if p.released {
		return nil, fmt.Errorf("%w: Unpack of a released plan", ErrDimension)
	}
	dst = matrix.New(p.Rows, p.Cols)
	if err := cl.pass(ctx, func(e *exec, c *sched.Ctx) {
		for b := range p.blocks {
			r, cs := p.RSegs[b/len(p.CSegs)], p.CSegs[b%len(p.CSegs)]
			p.blocks[b].unpackAccumulate(e, c, dst.View(r.Off, cs.Off, r.Len, cs.Len), 1, 0)
		}
	}); err != nil {
		return nil, err
	}
	return dst, nil
}

// At returns logical element (i, j) of op(src), read through its block's
// layout function (Tiled.At): a reference for tests, not a hot path.
func (p *Prepacked) At(i, j int) float64 {
	bi, bj := locate(p.RSegs, i), locate(p.CSegs, j)
	return p.Block(bi, bj).At(i-p.RSegs[bi].Off, j-p.CSegs[bj].Off)
}
