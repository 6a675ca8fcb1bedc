package core

import (
	"context"
	"fmt"
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
	// hdr is the blocks' full header (canonical storage's grid included).
	hdr Tiled
	// src, when non-nil, marks a deferred plan: it holds no blocks, and
	// segment (i, j) of op(src) is packed at first touch by the one C
	// block that multiplies it (mat).
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
	cl, err := enter(ctx, pool, opts, "Prepack", 0)
	defer leave(cl, &p, &err)
	if err != nil {
		return nil, err
	}
	o := cl.o
	r, c, err := prepackShape(o, src, trans)
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
	return packPlan(ctx, cl.pool, cl.tr, nil, Tiled{Curve: o.Curve, D: d, TR: t[0], TC: t[1]}, rs, cs, src, trans, false)
}

// PackTiled converts src into one tiled matrix on opts.Curve, the
// operand form MulTiledCtx multiplies, on the depth and tiles a plan of
// its shape gets.
func PackTiled(ctx context.Context, pool *sched.Pool, opts Options, src *matrix.Dense) (*Tiled, error) {
	o := opts.withDefaults()
	r, c, err := prepackShape(o, src, false)
	if err != nil {
		return nil, err
	}
	d, tiles, err := choose(o, r, c)
	if err != nil {
		return nil, err
	}
	t := NewTiled(o.Curve, d, tiles[0], tiles[1], r, c)
	if err := t.Pack(ctx, pool, src, false, 1); err != nil {
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
	cl, err := enter(ctx, pool, opts, "PrepackConforming", 0)
	defer leave(cl, &p, &err)
	if err != nil {
		return nil, err
	}
	if like == nil || like.released {
		return nil, fmt.Errorf("core: PrepackConforming against a nil or released plan")
	}
	o := cl.o
	o.Curve = like.Curve
	r, c, err := prepackShape(o, src, trans)
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
	return packPlan(ctx, cl.pool, cl.tr, nil, pl.g.hdrB(), pl.ks, pl.ns, src, trans, false)
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

// prepackShape validates the common Prepack preconditions and returns
// the logical op(src) extents.
func prepackShape(o Options, src *matrix.Dense, trans bool) (r, c int, err error) {
	if o.Curve == layout.ColMajor || o.Curve == layout.RowMajor {
		return 0, 0, fmt.Errorf("core: Prepack requires a recursive layout, got %v", o.Curve)
	}
	if src == nil {
		return 0, 0, fmt.Errorf("%w: Prepack of a nil operand", ErrDimension)
	}
	r, c = src.Rows, src.Cols
	if trans {
		r, c = c, r
	}
	if r == 0 || c == 0 {
		return 0, 0, fmt.Errorf("%w: Prepack of empty %dx%d operand", ErrDimension, r, c)
	}
	return r, c, nil
}

func maxSegLen(segs []tile.Seg) int {
	m := 0
	for _, s := range segs {
		if s.Len > m {
			m = s.Len
		}
	}
	return m
}

// newPlan is the empty plan of hdr's geometry over rs×cs segments.
func newPlan(hdr Tiled, rs, cs []tile.Seg) *Prepacked {
	return &Prepacked{Curve: hdr.Curve, D: hdr.D, TR: hdr.TR, TC: hdr.TC, Rows: segsLen(rs), Cols: segsLen(cs),
		RSegs: rs, CSegs: cs, hdr: hdr}
}

// packPlan builds and fills a plan over fixed geometry (hdr) and
// segments: every segment pair packed exactly once, unscaled, into a
// pooled buffer — up front, here, or (deferred: every segment has a
// single consuming C block) by that block when it runs, so nothing is
// packed yet. The nesting rule is the block wave's (asWave): enough
// segments pack as tasks of one pool.RunCtx, each serial inside; fewer
// pack in turn, each pool-parallel over its tiles. tr is the calling
// entry point's tracer, captured once; stats, when non-nil, is charged
// the conversion (a transient per-call plan).
func packPlan(ctx context.Context, pool *sched.Pool, tr *obs.Tracer, stats *Stats, hdr Tiled,
	rs, cs []tile.Seg, src *matrix.Dense, trans, deferred bool) (p *Prepacked, err error) {

	if p = newPlan(hdr, rs, cs); deferred {
		p.src, p.trans = src, trans
		return p, nil
	}
	p.blocks = make([]Tiled, len(rs)*len(cs))
	defer func() {
		if err != nil {
			p.Release()
			p = nil
		}
	}()
	view := func(b int) *matrix.Dense {
		v := opView(src, trans, rs[b/len(cs)], cs[b%len(cs)])
		return &v
	}
	for b := range p.blocks {
		p.blocks[b] = acquireLike(stats, hdr, rs[b/len(cs)].Len, cs[b%len(cs)].Len)
	}
	if asWave(len(p.blocks), pool.Workers()) {
		fns := make([]func(*sched.Ctx), len(p.blocks))
		for b := range p.blocks {
			t, sv := &p.blocks[b], view(b)
			fns[b] = func(c *sched.Ctx) {
				t0 := time.Now()
				if err := t.packSerial(sv, trans, 1); err != nil {
					panic(err) // geometry bug: the header was built to cover the segment
				}
				if tr != nil {
					tr.Span(c.WorkerID(), obs.KindPack, t0, time.Since(t0), int64(t.tiles()))
				}
			}
		}
		_, _, err = pool.RunCtx(ctx, func(c *sched.Ctx) { c.Parallel(fns...) })
	} else {
		for b := range p.blocks {
			if err = p.blocks[b].Pack(ctx, pool, view(b), trans, 1); err != nil {
				break
			}
		}
	}
	if err == nil && stats != nil {
		stats.ConvertBytes += p.Bytes()
	}
	return p, err
}

// segsLen returns the total extent a segment decomposition covers.
func segsLen(segs []tile.Seg) int {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// Block returns the packed Tiled covering (RSegs[i], CSegs[j]).
func (p *Prepacked) Block(i, j int) *Tiled { return &p.blocks[i*len(p.CSegs)+j] }

// mat returns segment (i, j) as the recursion reads it: the resident
// block, or — a deferred plan — op(src)'s segment packed now, unscaled
// and serially, into buf, the consuming runner's reused workspace, so
// the recursion finds it in that worker's cache. ws is billed the
// conversion.
func (p *Prepacked) mat(c *sched.Ctx, ws *waveWS, buf *Tiled, i, j int) Mat {
	if p.src == nil {
		return p.Block(i, j).Mat()
	}
	t0 := time.Now()
	buf.refit(&ws.stats, p.hdr, p.RSegs[i].Len, p.CSegs[j].Len)
	v := opView(p.src, p.trans, p.RSegs[i], p.CSegs[j])
	if err := buf.packSerial(&v, p.trans, 1); err != nil {
		panic(err) // geometry bug: the header was built to cover the segment
	}
	d := time.Since(t0)
	if tr := ws.e.tr; tr != nil && c != nil {
		tr.Span(c.WorkerID(), obs.KindPack, t0, d, int64(buf.tiles()))
	}
	ws.stats.ConvertIn += d
	ws.stats.ConvertBytes += 8 * int64(len(buf.Data))
	ws.stats.PackDeferred++
	return buf.Mat()
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

// repack refills a wave runner's transient plan with op(src) cut into
// rs×cs segments on hdr's geometry, every segment packed serially,
// unscaled. The block headers grow when a member has more segments than
// any before it and keep their buffers across members, so a
// steady-state wave allocates nothing per member.
func (p *Prepacked) repack(stats *Stats, hdr Tiled, rs, cs []tile.Seg, src *matrix.Dense, trans bool) error {
	blocks := p.blocks[:cap(p.blocks)]
	if n := len(rs) * len(cs); n > len(blocks) {
		blocks = append(blocks, make([]Tiled, n-len(blocks))...)
	}
	*p = *newPlan(hdr, rs, cs)
	p.blocks = blocks[:len(rs)*len(cs)]
	for b := range p.blocks {
		t, r, c := &p.blocks[b], rs[b/len(cs)], cs[b%len(cs)]
		t.refit(stats, hdr, r.Len, c.Len)
		v := opView(src, trans, r, c)
		if err := t.packSerial(&v, trans, 1); err != nil {
			return err
		}
		stats.ConvertBytes += 8 * int64(len(t.Data))
	}
	return nil
}

// Transposed derives the plan of op(src)ᵀ entirely inside the recursive
// layout: block (i, j) of the result is the in-layout transpose of
// block (j, i), built with PackTransposeOf — the column-major source is
// never re-read. One Prepack plus one Transposed is how a symmetric
// product (SYRK's α·A·Aᵀ) serves both operand slots from a single
// conversion pass.
func (p *Prepacked) Transposed(ctx context.Context, pool *sched.Pool) (q *Prepacked, err error) {
	cl, err := enter(ctx, pool, Options{}, "Transposed", 0)
	defer leave(cl, &q, &err)
	if err != nil {
		return nil, err
	}
	if p.released {
		return nil, fmt.Errorf("core: Transposed of a released plan")
	}
	return p.transposed(ctx, cl.pool, nil)
}

// transposed is Transposed past validation; stats, when non-nil, is the
// per-call driver's (it derives a transient B plan from A's this way).
func (p *Prepacked) transposed(ctx context.Context, pool *sched.Pool, stats *Stats) (q *Prepacked, err error) {
	hdr := Tiled{Curve: p.Curve, D: p.D, TR: p.TC, TC: p.TR}
	q = newPlan(hdr, p.CSegs, p.RSegs)
	q.blocks = make([]Tiled, len(p.blocks))
	defer func() {
		if err != nil {
			q.Release()
			q = nil
		}
	}()
	for i, sr := range q.RSegs {
		for j, sc := range q.CSegs {
			t := q.Block(i, j)
			*t = acquireLike(stats, hdr, sr.Len, sc.Len)
			if err = t.PackTransposeOf(ctx, pool, p.Block(j, i)); err != nil {
				return nil, err
			}
		}
	}
	return q, nil
}

// segsEqual reports whether two segment decompositions coincide.
func segsEqual(a, b []tile.Seg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GEMMPrepacked computes C ← α·A·B + β·C where A and B are prepacked
// plans (any transposition was folded at Prepack time). The operand
// conversion is gone from the call: per block, the driver zero-fills a
// pooled tiled C, accumulates the plan blocks' products into it, and
// folds α plus the accumulate into the unpack — so a steady-state call
// reports Stats.ConvertIn ≈ 0 (only the C zero-fill), ConvertBytes
// counting only the C epilogue, and PackReused counting every operand
// the plans served.
//
// The plans must conform: same curve and depth, pa's column tiling and
// segments equal to pb's row tiling and segments. Plans created by one
// Prepack call and its Transposed always conform; independently
// prepacked operands conform when tile selection lands on the same
// depth for the shared dimension (the default configuration's preferred
// tile size makes this the common case), and the call validates before
// touching C. Options select algorithm, kernel, and cutoffs; layout and
// tile options are ignored in favor of the plans' geometry, and
// MaxResidualGrowth is not applied (the probe needs column-major
// operands).
//
// The failure contract matches GEMMCtx: on error or cancellation C
// holds the β-scaled input plus fully completed block products only.
func GEMMPrepacked(ctx context.Context, pool *sched.Pool, opts Options, alpha float64,
	pa, pb *Prepacked, beta float64, C *matrix.Dense) (stats *Stats, err error) {

	cl, err := enter(ctx, pool, opts, "GEMMPrepacked", opts.TraceID)
	defer func() { cl.end(stats, err) }()
	defer leave(cl, &stats, &err)
	if err != nil {
		return nil, err
	}
	pool = cl.pool
	if pa == nil || pb == nil {
		return nil, fmt.Errorf("%w: GEMMPrepacked with nil plan", ErrDimension)
	}
	if pa.released || pb.released {
		return nil, fmt.Errorf("core: GEMMPrepacked with released plan")
	}
	if err := conform(alpha, beta, pa.Rows, pa.Cols, pb.Rows, pb.Cols, C); err != nil {
		return nil, err
	}
	if pa.Curve != pb.Curve {
		return nil, fmt.Errorf("core: plans disagree on layout: %v vs %v", pa.Curve, pb.Curve)
	}
	if pa.D != pb.D || pa.TC != pb.TR {
		return nil, fmt.Errorf("core: plans do not conform on the inner dimension: "+
			"A packs k with %d-wide tiles at depth %d, B with %d-tall tiles at depth %d "+
			"(prepack the lean operand with DisableSplit, or derive one plan from the other with Transposed)",
			pa.TC, pa.D, pb.TR, pb.D)
	}
	if !segsEqual(pa.CSegs, pb.RSegs) {
		return nil, fmt.Errorf("core: plans split the inner dimension differently (%d vs %d segments); "+
			"prepack the lean operand with DisableSplit so the shared dimension stays in one segment",
			len(pa.CSegs), len(pb.RSegs))
	}

	// The plans arrive with the pack step done: their operands were
	// allocated once, outside this call, and are charged to the plan —
	// only the in-flight C tiles and the arena count against the budget.
	pl, err := planOf(cl.o, pool.Workers(), given{pa: pa, pb: pb, resident: true}, pa.Rows, pa.Cols, pb.Cols)
	if err != nil {
		return nil, err
	}
	pc, err := admitPlan(cl, pl)
	if err != nil {
		return nil, err
	}
	stats = &Stats{}
	pc.start(cl, stats)
	defer releaseArena(pc.ar)
	if err := scaleC(pool, C, beta); err != nil {
		return nil, fmt.Errorf("core: GEMMPrepacked beta scale: %w", err)
	}
	if alpha == 0 {
		return stats, nil
	}
	pm := planMul{alg: pc.alg, alpha: alpha, beta: beta, pa: pa, pb: pb, C: C, reused: 2}
	if done, err := pm.run(ctx, pool, pc, stats, opts.TraceID); err != nil {
		return nil, fmt.Errorf("core: GEMMPrepacked failed after %d of %d blocks: %w",
			done, len(pa.RSegs)*len(pb.CSegs), err)
	}
	pc.finish(cl, stats)
	return stats, nil
}
