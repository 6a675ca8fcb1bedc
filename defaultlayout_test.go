package recmat

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestDeterminismDefaultLayout: the unset layout changes where the
// library multiplies, never what it returns. Through every entry point —
// GEMM (and a GEMMBatch of the same call, which is its bits), Pack +
// MulPacked, Prepack + GEMMPrepacked, Cholesky and LU — on the
// determinism shapes at 1, 2 and 4 workers, nil options and options that
// name no layout give the bits of the same call naming Z-Morton, which
// the unset layout resolves to, and of the same call naming ColMajor (the
// default before it) wherever that is accepted: canonical and recursive
// storage are one rounding class. Run by `make determinism`.
func TestDeterminismDefaultLayout(t *testing.T) {
	ctx := context.Background()
	shapes := [][3]int{{250, 225, 10}, {12, 225, 250}, {150, 10, 150}, {75, 75, 75}, {128, 128, 12}}
	sizes := []int{130, 300, 513}
	if testing.Short() {
		shapes, sizes = shapes[3:4], sizes[:1]
	}
	// nil, and Winograd recursing to single tiles: the additions of a fast
	// level run on both storages.
	variants := []*Options{nil, {Algorithm: Winograd, FastCutoff: 1}}
	spds := map[int]*Matrix{}
	for _, n := range sizes {
		G := RandomSeeded(n, n, int64(n))
		S := NewMatrix(n, n)
		RefGEMM(true, false, 1, G, G, 0, S) // GᵀG + n·I is positive definite
		for i := 0; i < n; i++ {
			S.Set(i, i, S.At(i, i)+float64(n))
		}
		spds[n] = S
	}

	ref := map[string]uint64{} // by entry point, shape and variant: the first answer
	same := func(key, what string, h uint64) {
		t.Helper()
		if first, ok := ref[key]; !ok {
			ref[key] = h
		} else if h != first {
			t.Errorf("%s: %s bits %016x differ from the first answer %016x", key, what, h, first)
		}
	}
	for _, w := range []int{1, 2, 4} {
		eng := NewEngine(w)
		for vi, v := range variants {
			for _, lay := range []Layout{layout0, ZMorton, ColMajor} {
				o := v
				if lay != layout0 {
					oo := Options{Layout: lay}
					if v != nil {
						oo = *v
						oo.Layout = lay
					}
					o = &oo
				}
				what := fmt.Sprintf("%d workers, layout %v", w, lay)
				canonical := lay == ColMajor
				for _, sh := range shapes {
					m, k, n := sh[0], sh[1], sh[2]
					A, B, C0 := RandomSeeded(m, k, 1), RandomSeeded(k, n, 2), RandomSeeded(m, n, 3)
					key := fmt.Sprintf("GEMM %dx%dx%d variant %d", m, k, n, vi)
					C := C0.Clone()
					if _, err := eng.DGEMM(false, false, 0.75, A, B, 0.5, C, o); err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					same(key, what, bitsOf(C))
					if canonical {
						continue // plans, packed operands and waves are recursive only
					}
					C = C0.Clone()
					if _, errs, err := eng.GEMMBatch(ctx, []GEMMBatchItem{{Alpha: 0.75, A: A, B: B, Beta: 0.5, C: C}}, o); err != nil || errs[0] != nil {
						t.Fatalf("%s, %s: GEMMBatch: %v %v", key, what, err, errs)
					}
					same(key, what+" GEMMBatch", bitsOf(C))

					key = fmt.Sprintf("Prepack %dx%dx%d variant %d", m, k, n, vi)
					pa, err := eng.Prepack(A, false, o)
					if err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					pb, err := eng.PrepackConforming(B, false, o, pa)
					if err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					C = C0.Clone()
					if _, err := eng.GEMMPrepackedOpts(ctx, o, 0.75, pa, pb, 0.5, C); err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					pa.Release()
					pb.Release()
					same(key, what, bitsOf(C))

					if m == k && k == n {
						key = fmt.Sprintf("Pack %d^3 variant %d", n, vi)
						a, err := eng.Pack(A, o)
						if err != nil {
							t.Fatalf("%s, %s: %v", key, what, err)
						}
						b, _ := eng.Pack(B, o)
						c, err := eng.NewPackedResult(a, b)
						if err != nil {
							t.Fatalf("%s, %s: %v", key, what, err)
						}
						if _, err := eng.MulPacked(c, a, b, o); err != nil {
							t.Fatalf("%s, %s: %v", key, what, err)
						}
						got, err := c.Unpack(eng)
						if err != nil {
							t.Fatal(err)
						}
						same(key, what, bitsOf(got))
					}
				}
				for _, n := range sizes {
					key := fmt.Sprintf("Cholesky %d^2 variant %d", n, vi)
					L, err := eng.Cholesky(spds[n], o)
					if err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					same(key, what, bitsOf(L))

					key = fmt.Sprintf("LU %d^2 variant %d", n, vi)
					f, err := eng.LU(RandomSeeded(n, n, 4), o)
					if err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					X := RandomSeeded(n, 48, 5)
					if err := f.Solve(X); err != nil {
						t.Fatalf("%s, %s: %v", key, what, err)
					}
					same(key, what, bitsOf(X)^math.Float64bits(f.Det()))
				}
			}
		}
		eng.Close()
	}
}

// layout0 is the unset layout, the zero Layout.
const layout0 Layout = 0

// bitsOf is FNV-1a over the bit patterns of M's elements, column by
// column.
func bitsOf(M *Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for j := 0; j < M.Cols; j++ {
		for _, v := range M.Data[j*M.Stride : j*M.Stride+M.Rows] {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
