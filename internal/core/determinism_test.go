package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// The result of a GEMM is a pure function of (operands, shape,
// algorithm, kernel): these tests pin that it does not depend on the
// table engine's per-level schedule, on the worker count, or on whether
// the operands arrive raw or as prepacked plans. `make check` runs them
// under -cpu 1,2,4.

// opMat draws an operand whose op() is rows×cols.
func opMat(rows, cols int, trans bool, rng *rand.Rand) *matrix.Dense {
	if trans {
		return matrix.Random(cols, rows, rng)
	}
	return matrix.Random(rows, cols, rng)
}

// TestDeterminismPolicies: BFS, DFS and the idle-driven hybrid are
// schedules of one computation — with the engine forced to each in
// turn, every registered algorithm on every storage produces the same
// bits, for every transpose pair and β.
func TestDeterminismPolicies(t *testing.T) {
	defer func() { tablePolicyHook = policyHybrid }()
	pool := sched.NewPool(0) // one worker per GOMAXPROCS: -cpu varies it
	defer pool.Close()
	rng := rand.New(rand.NewSource(151))
	// 72×48×72 divides by every registered base partition, so on
	// canonical storage the rectangular tables run their own levels.
	m, k, n := 72, 48, 72
	for _, alg := range Algs {
		for _, cv := range mulCurves {
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					for _, beta := range []float64{0, 1, 0.5} {
						A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
						C := matrix.Random(m, n, rng)
						opts := Options{Curve: cv, Alg: alg, Tile: testTile, SerialCutoff: 1}
						var want *matrix.Dense
						for _, pol := range []tablePolicy{policyHybrid, policyBFS, policyDFS} {
							tablePolicyHook = pol
							got := C.Clone()
							if _, err := GEMMCtx(context.Background(), pool, opts, ta, tb, -1.25, A, B, beta, got); err != nil {
								t.Fatalf("%v/%v ta=%v tb=%v beta=%g policy %d: %v", alg, cv, ta, tb, beta, pol, err)
							}
							if want == nil {
								want = got
							} else if !matrix.Equal(got, want, 0) {
								t.Errorf("%v/%v ta=%v tb=%v beta=%g: policy %d differs from hybrid, max diff %g",
									alg, cv, ta, tb, beta, pol, matrix.MaxAbsDiff(got, want))
							}
						}
					}
				}
			}
		}
	}
}

// TestDeterminismSplitEntryPoints: on wide/lean shapes a per-call GEMM
// and the same operands through Prepack(PartnerDim: n) +
// PrepackConforming + GEMMPrepacked cut the same blocks on the same
// tiles and chain each block's products in the same order — bit for
// bit, at 1, 2, 4 and (blocks running nested) 16 workers.
func TestDeterminismSplitEntryPoints(t *testing.T) {
	shapes := [][3]int{{1024, 1024, 48}, {1000, 300, 40}, {40, 300, 1000}}
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{250, 75, 10}, {10, 75, 250}} // the same cuts at a quarter of the size
	}
	var pools []*sched.Pool
	for _, w := range []int{1, 2, 4, 16} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(152))
	algs := []Alg{Standard, TableWinograd222}
	for si, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for bi, beta := range []float64{0, 1, 0.5} {
					A, B := opMat(m, k, ta, rng), opMat(k, n, tb, rng)
					C := matrix.Random(m, n, rng)
					opts := Options{Curve: layout.RecursiveCurves[(si+bi)%len(layout.RecursiveCurves)], Alg: algs[bi%len(algs)]}
					name := fmt.Sprintf("%dx%dx%d %v/%v ta=%v tb=%v beta=%g", m, k, n, opts.Alg, opts.Curve, ta, tb, beta)

					want := C.Clone()
					st, err := GEMMCtx(ctx, pools[0], opts, ta, tb, 0.75, A, B, beta, want)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.Blocks < 2 {
						t.Fatalf("%s: %d block(s), want a split", name, st.Blocks)
					}
					ref := C.Clone()
					matrix.RefGEMM(ta, tb, 0.75, A, B, beta, ref)
					if !matrix.Equal(want, ref, tol(m, k, n)) {
						t.Errorf("%s: max diff %g against the reference", name, matrix.MaxAbsDiff(want, ref))
					}

					for _, pool := range pools {
						got := C.Clone()
						if _, err := GEMMCtx(ctx, pool, opts, ta, tb, 0.75, A, B, beta, got); err != nil {
							t.Fatalf("%s, %d workers: %v", name, pool.Workers(), err)
						}
						if !matrix.Equal(got, want, 0) {
							t.Errorf("%s: per-call bits differ at %d workers, max diff %g",
								name, pool.Workers(), matrix.MaxAbsDiff(got, want))
						}

						po := opts
						po.PartnerDim = n
						pa, err := Prepack(ctx, pool, po, A, ta)
						if err != nil {
							t.Fatalf("%s: Prepack: %v", name, err)
						}
						pb, err := PrepackConforming(ctx, pool, opts, B, tb, pa)
						if err != nil {
							t.Fatalf("%s: PrepackConforming: %v", name, err)
						}
						got = C.Clone()
						pst, err := GEMMPrepacked(ctx, pool, opts, 0.75, pa, pb, beta, got)
						pa.Release()
						pb.Release()
						if err != nil {
							t.Fatalf("%s, %d workers: GEMMPrepacked: %v", name, pool.Workers(), err)
						}
						if pst.Blocks != st.Blocks || pst.TileM != st.TileM || pst.TileK != st.TileK || pst.TileN != st.TileN {
							t.Errorf("%s: plans run %d blocks of %dx%dx%d tiles, per-call %d of %dx%dx%d",
								name, pst.Blocks, pst.TileM, pst.TileK, pst.TileN, st.Blocks, st.TileM, st.TileK, st.TileN)
						}
						if !matrix.Equal(got, want, 0) {
							t.Errorf("%s: prepacked bits differ from per-call at %d workers, max diff %g",
								name, pool.Workers(), matrix.MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}
