// Benchmarks regenerating the shape of every figure and table in the
// paper's evaluation (Section 5). Each benchmark mirrors one experiment;
// the cmd/experiments tool runs the same sweeps at the paper's full
// problem sizes and prints paper-style tables. Benchmark sizes here are
// scaled down so the whole suite completes in minutes on a laptop; the
// relative ordering (who wins, where the knees are) is what matters, as
// absolute times depend on the host.
//
// Index:
//
//	BenchmarkFig4TileSize     — Figure 4: execution time vs. tile size
//	BenchmarkFig5Robustness   — Figure 5: time vs. n near pathological sizes
//	BenchmarkFig6Layouts      — Figure 6: layouts × algorithms cross-product
//	BenchmarkFig7Kernels      — Figure 7: leaf-kernel quality overheads
//	BenchmarkSlowdown         — §5 text: element-level vs. tiled slowdowns
//	BenchmarkConversion       — §4: layout conversion cost vs. multiply
//	BenchmarkScalability      — §5: speedup on 1, 2, 4 workers
//	BenchmarkAblation*        — design-choice ablations (DESIGN.md §5):
//	                            spawn structure, fast cutoff, serial
//	                            cutoff, orientation cost, quadtree
//	                            baseline, low-memory Strassen
//	BenchmarkPackedAmortization — resident recursive layouts vs convert-per-call
//	BenchmarkBLAS3            — Cholesky / TRSM / SYRK on the recursive GEMM
package recmat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/quadtree"
)

// benchGEMM runs C = A·B repeatedly under the given options.
func benchGEMM(b *testing.B, eng *Engine, n int, opts *Options) {
	rng := rand.New(rand.NewSource(1))
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Mul(C, A, B, opts); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLOPS")
}

// BenchmarkFig4TileSize reproduces Figure 4: the standard algorithm with
// the Z-Morton layout at a fixed n, sweeping the tile size at which the
// recursive layout stops. The paper's curve is U-shaped: element-level
// tiles (t=1, the Frens–Wise layout) are an order of magnitude slower
// than the plateau around t=16–64, and very large tiles lose again.
func BenchmarkFig4TileSize(b *testing.B) {
	const n = 256
	eng := NewEngine(1) // the paper's Figure 4 is single-processor
	defer eng.Close()
	for _, t := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d/t=%d", n, t), func(b *testing.B) {
			benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: t})
		})
	}
}

// BenchmarkFig5Robustness reproduces Figure 5: execution time as n
// varies in small steps around a power of two, for the standard and
// Strassen algorithms under the canonical and Z-Morton layouts. The
// paper's signature is high variance for standard+ColMajor, damped
// variance for standard+ZMorton, and flat curves for Strassen under
// both.
func BenchmarkFig5Robustness(b *testing.B) {
	eng := NewEngine(2)
	defer eng.Close()
	for _, alg := range []Algorithm{Standard, Strassen} {
		for _, lo := range []Layout{ColMajor, ZMorton} {
			for n := 250; n <= 262; n += 3 {
				b.Run(fmt.Sprintf("%v/%v/n=%d", alg, lo, n), func(b *testing.B) {
					benchGEMM(b, eng, n, &Options{Layout: lo, Algorithm: alg})
				})
			}
		}
	}
}

// BenchmarkFig6Layouts reproduces Figure 6: the full cross-product of
// the six layouts and three algorithms at a non-power-of-two size. The
// paper's findings: recursive layouts beat ColMajor decisively for the
// standard algorithm, only marginally for the fast ones; and the five
// recursive layouts perform nearly identically.
func BenchmarkFig6Layouts(b *testing.B) {
	const n = 360
	eng := NewEngine(2)
	defer eng.Close()
	for _, alg := range []Algorithm{Standard, Strassen, Winograd} {
		for _, lo := range Layouts {
			b.Run(fmt.Sprintf("%v/%v/n=%d", alg, lo, n), func(b *testing.B) {
				benchGEMM(b, eng, n, &Options{Layout: lo, Algorithm: alg})
			})
		}
	}
}

// BenchmarkFig7Kernels reproduces Figure 7's overhead decomposition with
// the kernel-substitution documented in DESIGN.md: the ratio between the
// register-blocked kernel (standing in for native BLAS) and the paper's
// unrolled-4 kernel plays the role of the "no native BLAS" factor
// (1.2–1.4× in the paper), and naive/unrolled4 plays the compiler-
// quality factor (1.5–1.9×).
func BenchmarkFig7Kernels(b *testing.B) {
	const n = 256
	eng := NewEngine(1)
	defer eng.Close()
	for _, alg := range []Algorithm{Standard, Strassen} {
		for _, kn := range Kernels() {
			b.Run(fmt.Sprintf("%v/%s/n=%d", alg, kn, n), func(b *testing.B) {
				benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: alg, KernelName: kn})
			})
		}
	}
}

// BenchmarkSlowdown reproduces the Section 5 slowdown-factor discussion:
// the paper reports that stopping the recursion at tiles (t=16) is only
// 1.88× slower than native dgemm at n=1024, versus the ≈8× Frens and
// Wise reported for element-level quadtrees. Here "native dgemm" is the
// register-blocked kernel run as a single tile.
func BenchmarkSlowdown(b *testing.B) {
	const n = 256
	eng := NewEngine(1)
	defer eng.Close()
	b.Run("native-stand-in", func(b *testing.B) {
		// One huge "tile": the blocked kernel over the whole matrix.
		benchGEMM(b, eng, n, &Options{Layout: ColMajor, Algorithm: Standard,
			KernelName: "blocked", ForceTile: n})
	})
	b.Run("recursive-t16", func(b *testing.B) {
		benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 16})
	})
	b.Run("element-level-t1", func(b *testing.B) {
		benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 1})
	})
}

// BenchmarkConversion measures the column-major ⇄ recursive conversion
// cost that Section 4 insists must be accounted for, relative to one
// multiplication at the same size.
func BenchmarkConversion(b *testing.B) {
	const n = 512
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	for _, lo := range []Layout{UMorton, XMorton, ZMorton, GrayMorton, Hilbert} {
		b.Run(fmt.Sprintf("%v", lo), func(b *testing.B) {
			var conv, comp float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Mul(C, A, B, &Options{Layout: lo, Algorithm: Standard})
				if err != nil {
					b.Fatal(err)
				}
				conv += (rep.ConvertIn + rep.ConvertOut).Seconds()
				comp += rep.Compute.Seconds()
			}
			if comp > 0 {
				b.ReportMetric(100*conv/(conv+comp), "conv%")
			}
		})
	}
}

// BenchmarkScalability reproduces the near-perfect 1→4 processor scaling
// of Figures 5 and 6 (worker counts beyond the host's CPUs just measure
// oversubscription).
func BenchmarkScalability(b *testing.B) {
	const n = 384
	for _, w := range []int{1, 2, 4} {
		for _, alg := range []Algorithm{Standard, Strassen} {
			b.Run(fmt.Sprintf("%v/workers=%d", alg, w), func(b *testing.B) {
				eng := NewEngine(w)
				defer eng.Close()
				benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: alg})
			})
		}
	}
}

// BenchmarkAblationSpawnStructure compares the two standard-algorithm
// parallelizations: accumulate form (no temporaries, two spawn rounds)
// versus the Figure 1(a) eight-spawn form with temporaries.
func BenchmarkAblationSpawnStructure(b *testing.B) {
	const n = 384
	eng := NewEngine(2)
	defer eng.Close()
	for _, alg := range []Algorithm{Standard, Standard8} {
		b.Run(alg.String(), func(b *testing.B) {
			benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: alg})
		})
	}
}

// BenchmarkAblationFastCutoff varies the point at which Strassen and
// Winograd fall back to the standard recursion (the paper recurses
// fully; later work showed early cutoff wins). cutoff=0 is the library
// default, the crossover rule's for this host's kernel and the tiles.
func BenchmarkAblationFastCutoff(b *testing.B) {
	const n = 512
	eng := NewEngine(2)
	defer eng.Close()
	for _, alg := range []Algorithm{Strassen, Winograd} {
		for _, fc := range []int{0, 1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%v/cutoff=%d", alg, fc), func(b *testing.B) {
				benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: alg, FastCutoff: fc})
			})
		}
	}
}

// BenchmarkAblationSerialCutoff varies the task-spawning grain.
func BenchmarkAblationSerialCutoff(b *testing.B) {
	const n = 512
	eng := NewEngine(2)
	defer eng.Close()
	for _, sc := range []int{1, 2, 4, 8, 32} {
		b.Run(fmt.Sprintf("cutoff=%d", sc), func(b *testing.B) {
			benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, SerialCutoff: sc})
		})
	}
}

// BenchmarkAblationGrayHalfStep isolates the cost of orientation
// resolution in pre/post-additions by comparing a one-orientation curve
// (Z) against the two-orientation Gray-Morton and four-orientation
// Hilbert under Strassen, whose additions exercise the machinery.
func BenchmarkAblationOrientationCost(b *testing.B) {
	const n = 512
	eng := NewEngine(2)
	defer eng.Close()
	for _, lo := range []Layout{ZMorton, GrayMorton, Hilbert} {
		b.Run(fmt.Sprintf("%v", lo), func(b *testing.B) {
			benchGEMM(b, eng, n, &Options{Layout: lo, Algorithm: Strassen})
		})
	}
}

// BenchmarkAblationQuadtreeBaseline compares the Frens–Wise element-level
// quadtree representation (physically represented internal nodes, zero
// subtrees elided) against this library's tiled recursive layout and
// against forcing the tiled machinery down to single elements. The
// ordering — tiled ≫ forced-element-level ≈ quadtree — is the paper's
// core argument for stopping the layout recursion at tiles.
func BenchmarkAblationQuadtreeBaseline(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(1))
	Ad := Random(n, n, rng)
	Bd := Random(n, n, rng)
	b.Run("quadtree-element", func(b *testing.B) {
		qa, qb := quadtree.FromDense(Ad), quadtree.FromDense(Bd)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			quadtree.Mul(qa, qb)
		}
	})
	eng := NewEngine(1)
	defer eng.Close()
	b.Run("tiled-element", func(b *testing.B) {
		benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 1})
	})
	b.Run("tiled-t16", func(b *testing.B) {
		benchGEMM(b, eng, n, &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 16})
	})
}

// BenchmarkAblationLowMemStrassen reproduces the Section 5 curiosity:
// the space-conserving sequential Strassen variant (pre/post-additions
// interspersed with recursive calls) "behaves more like the standard
// algorithm: L_Z reduces execution times by 10–20%" — unlike the
// parallel Strassen, for which the layout is nearly irrelevant.
func BenchmarkAblationLowMemStrassen(b *testing.B) {
	const n = 360
	eng := NewEngine(1)
	defer eng.Close()
	for _, alg := range []Algorithm{Strassen, StrassenLowMem} {
		for _, lo := range []Layout{ColMajor, ZMorton} {
			b.Run(fmt.Sprintf("%v/%v", alg, lo), func(b *testing.B) {
				benchGEMM(b, eng, n, &Options{Layout: lo, Algorithm: alg})
			})
		}
	}
}

// BenchmarkPackedAmortization quantifies the benefit of keeping matrices
// resident in the recursive layout (the Frens–Wise usage model) against
// converting at every call (the dgemm interface model whose cost the
// paper insists on counting): a chain of k multiplications pays one
// conversion with Packed and k conversions through Mul.
func BenchmarkPackedAmortization(b *testing.B) {
	const n = 256
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	opts := &Options{Layout: ZMorton, Algorithm: Standard, ForceTile: 32}
	b.Run("convert-every-call", func(b *testing.B) {
		C := NewMatrix(n, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Mul(C, A, B, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed-resident", func(b *testing.B) {
		pa, err := eng.Pack(A, opts)
		if err != nil {
			b.Fatal(err)
		}
		pb, err := eng.Pack(B, opts)
		if err != nil {
			b.Fatal(err)
		}
		pc, err := eng.NewPackedResult(pa, pb)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.MulPacked(pc, pa, pb, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBLAS3 measures the BLAS-3 layer built on the recursive
// multiply (the ATLAS extension): Cholesky, TRSM, and SYRK.
func BenchmarkBLAS3(b *testing.B) {
	const n = 256
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	A := spdMatrix(n, rng)
	opts := &Options{Layout: ZMorton, Algorithm: Standard}
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Cholesky(A, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	L, err := eng.Cholesky(A, opts)
	if err != nil {
		b.Fatal(err)
	}
	rhs := Random(n, 8, rng)
	b.Run("trsm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			X := rhs.Clone()
			if err := eng.TRSM(false, false, 1, L, X, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	G := Random(n, 64, rng)
	C := NewMatrix(n, n)
	b.Run("syrk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.SYRK(false, 1, G, 0, C, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
