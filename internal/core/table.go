package core

import (
	"fmt"
	"sort"
)

// This file defines the coefficient-table representation of bilinear
// ⟨m,k,n⟩ fast multiplication algorithms (Benson–Ballard, "A Framework
// for Practical Parallel Fast Matrix Multiplication"). A rank-R
// algorithm over an m×k / k×n / m×n block partition is three sparse
// matrices U (R×mk), V (R×kn), W (mn×R): each of the R recursive
// products is P_r = (Σ_ij U[r][ij]·A_ij)·(Σ_jl V[r][jl]·B_jl), and each
// C block is C_il += Σ_r W[il][r]·P_r. Strassen and Winograd are the
// two classical ⟨2,2,2⟩ rank-7 points of this family, and Figure 1(a)'s
// eight products into temporaries its rank-8 point; the table form lets
// one generic engine (tablemul.go) run every member — the paper's
// Figure 1(a), 1(b), 1(c) and Section 5's space-conserving variant
// included — so adding an algorithm is adding data, not code.
//
// Correctness of a table is equivalent to the Brent equations — the
// triple-product identity
//
//	Σ_r U[r][(i1,j1)]·V[r][(j2,l1)]·W[(i2,l2)][r]
//	  = δ(i1=i2)·δ(j1=j2)·δ(l1=l2)
//
// checked in exact integer arithmetic by Verify (TestAlgTables and
// `make algtable-check` run it over every registered table, so a
// typo'd coefficient fails CI loudly instead of corrupting results).

// tableTerm is one nonzero coefficient of a U/V/W row. For U rows idx
// addresses A block (i,j) as i*K+j, for V rows B block (j,l) as j*N+l,
// for W rows it is the product index r. The engine requires c ∈ {-1,+1}
// (register rejects anything else); every known practical table uses
// unit coefficients, and the restriction keeps the element-wise passes
// on the existing vAdd/vSub/vAcc/vDec streams.
type tableTerm struct {
	idx int
	c   int
}

// Index is the term's idx, for a reader of a Table outside the package
// (internal/trace evaluates the tables on dependency sets).
func (t tableTerm) Index() int { return t.idx }

// Table is one bilinear ⟨M,K,N⟩ rank-R algorithm.
type Table struct {
	Name    string
	M, K, N int // base partition: A splits M×K, B splits K×N, C splits M×N
	R       int // rank: recursive products per level

	U [][]tableTerm // R rows over A blocks
	V [][]tableTerm // R rows over B blocks
	W [][]tableTerm // M·N rows over products

	// AuxU/AuxV/AuxW carry an optional evaluation schedule — the common
	// subexpressions a hand-tuned implementation would name, which the
	// raw bilinear form expands away. AuxU[j] defines virtual A block
	// M·K+j as a ±1 combination of base A blocks and strictly earlier
	// aux; U rows may reference both. AuxV is the same over B. AuxW[j]
	// defines virtual product R+j from products and earlier W aux; W
	// rows may reference it. A schedule changes the engine's pass count,
	// never the algebra: Verify expands it and checks the Brent
	// equations on the underlying bilinear form. Without one, the
	// engine re-derives every operand combination per product — exactly
	// the add traffic Winograd's variant exists to avoid.
	AuxU, AuxV, AuxW [][]tableTerm

	// WT is W transposed — per product r, the destinations it feeds
	// (C rows, and W-aux accumulators as M·N+j) — precomputed at
	// registration for the depth-first engine, which scatters each
	// product as soon as it completes. auxWScatter[j] lists where the
	// completed W aux j flows: C rows and strictly later aux.
	WT          [][]tableTerm
	auxWScatter [][]tableTerm

	// Base is the algorithm the engine hands the recursion to once the
	// table levels are exhausted (the remaining grid is a square power
	// of two by construction). ⟨2,2,2⟩ tables switch to Standard at
	// FastCutoff; rectangular tables use Winograd so the power-of-two
	// region stays fast.
	Base Alg

	// depthFirst runs every level of the table depth-first whatever the
	// serial cutoff says: Section 5's space-conserving variant.
	depthFirst bool

	// preA/preB count the products whose A/B operand needs a scratch
	// block (multi-term or negated rows); arena sizing uses them.
	preA, preB int
}

// quad reports a ⟨2,2,2⟩ table: self-similar on the power-of-two grid,
// so it descends to FastCutoff on every storage.
func (tb *Table) quad() bool { return tb.M == 2 && tb.K == 2 && tb.N == 2 }

// fast reports a table that multiplies with fewer products than the
// classical M·K·N, and false for no table at all (Standard). Only a fast
// algorithm has a cutoff to hand over at (Options.settle), fast levels,
// a residual probe and a space-conserving rung on the admission ladder;
// Standard8, the classical rank-8 table, descends to single tiles.
func (tb *Table) fast() bool { return tb != nil && tb.R < tb.M*tb.K*tb.N }

// needsTemp reports whether a U/V row requires a materialized scratch
// block; a bare +1 singleton aliases the operand block directly.
func needsTemp(row []tableTerm) bool {
	return len(row) > 1 || row[0].c != 1
}

// fusesPair reports whether a row's first two terms fold into one
// three-operand pass: any pair of signs but (−,−). Every registered
// table's multi-term rows do.
func fusesPair(row []tableTerm) bool {
	return len(row) >= 2 && (row[0].c == 1 || row[1].c == 1)
}

// rowPasses counts the passes exec.materialize makes to evaluate row:
// one three-operand pass over a fused leading pair, or else a copy or
// negation of the first term, then one accumulate per remaining term.
// Each pass is accounted as one addition.
func rowPasses(row []tableTerm) (n3, n2 int) {
	if fusesPair(row) {
		return 1, len(row) - 2
	}
	return 0, len(row)
}

// passes counts the element-wise passes of one breadth-first level:
// three-operand, two-operand (the W rows accumulate each term into C)
// and the R products' zero-fills. The fast-cutoff rule prices a
// level with these counts and WorkSpan charges n3+n2 additions; the
// zero-fills are data movement and are not accounted.
func (tb *Table) passes() (n3, n2, zero int) {
	add := func(row []tableTerm) {
		a, b := rowPasses(row)
		n3, n2 = n3+a, n2+b
	}
	for _, aux := range [][][]tableTerm{tb.AuxU, tb.AuxV, tb.AuxW} {
		for _, row := range aux {
			add(row)
		}
	}
	for r := 0; r < tb.R; r++ {
		if needsTemp(tb.U[r]) {
			add(tb.U[r])
		}
		if needsTemp(tb.V[r]) {
			add(tb.V[r])
		}
	}
	for _, row := range tb.W {
		n2 += len(row)
	}
	return n3, n2, tb.R
}

// depth is the number of those additions on the critical path of one
// breadth-first level (tableBFS): the A, B and — after the products —
// W aux chains run in definition order, the operand rows one task
// each, the C blocks one chain each.
func (tb *Table) depth() (d int) {
	adds := func(row []tableTerm) int {
		n3, n2 := rowPasses(row)
		return n3 + n2
	}
	for _, aux := range [][][]tableTerm{tb.AuxU, tb.AuxV, tb.AuxW} {
		for _, row := range aux {
			d += adds(row)
		}
	}
	pre, post := 0, 0
	for r := 0; r < tb.R; r++ {
		for _, row := range [][]tableTerm{tb.U[r], tb.V[r]} {
			if needsTemp(row) {
				pre = max(pre, adds(row))
			}
		}
	}
	for _, row := range tb.W {
		post = max(post, len(row))
	}
	return d + pre + post
}

// tableMaxBlocks and tableMaxWAux bound the per-side operand counts
// (base blocks plus schedule aux) so the depth-first engine can keep
// its block descriptors in fixed stack buffers; register enforces them.
const (
	tableMaxBlocks = 16
	tableMaxWAux   = 8
)

// tableAlgBase is the Alg id of the first table-driven algorithm: the
// registry opens with the four ⟨2,2,2⟩ tables — Standard8, Strassen,
// Winograd and StrassenLowMem — in the order of their ids.
const tableAlgBase = Standard8

// AlgAuto is the per-shape auto-selection sentinel: the driver resolves
// it to a concrete algorithm from the call's geometry before admission
// (see Options.settle). It is deliberately far from the real ids so the zero
// Options value keeps meaning Standard.
const AlgAuto Alg = 0xFF

// tableRegistry holds the table-driven algorithms in registration
// order; tableRegistry[i] has Alg id tableAlgBase+i.
var tableRegistry []*Table

// tableOf returns the table behind a table-driven Alg id, or nil.
func tableOf(a Alg) *Table {
	i := int(a) - int(tableAlgBase)
	if i >= 0 && i < len(tableRegistry) {
		return tableRegistry[i]
	}
	return nil
}

// register validates invariants that the engine relies on (index
// ranges, unit coefficients), precomputes WT and the scratch counts,
// and assigns the next Alg id. Algebraic correctness is Verify's job.
func register(tb *Table) Alg {
	if len(tb.U) != tb.R || len(tb.V) != tb.R || len(tb.W) != tb.M*tb.N {
		panic("core: table " + tb.Name + ": U/V/W shape mismatch")
	}
	check := func(rows [][]tableTerm, n int) {
		for _, row := range rows {
			for _, t := range row {
				if t.idx < 0 || t.idx >= n {
					panic("core: table " + tb.Name + ": term index out of range")
				}
				if t.c != 1 && t.c != -1 {
					panic("core: table " + tb.Name + ": non-unit coefficient")
				}
			}
		}
	}
	// Schedule rows must be non-empty, reference only strictly earlier
	// aux (so in-order materialization is well defined), and keep the
	// extended operand sets inside the engine's fixed DFS buffers.
	checkAux := func(aux [][]tableTerm, base int, side string) {
		for j, row := range aux {
			if len(row) == 0 {
				panic("core: table " + tb.Name + ": empty " + side + " schedule row")
			}
			check([][]tableTerm{row}, base+j)
		}
	}
	checkAux(tb.AuxU, tb.M*tb.K, "AuxU")
	checkAux(tb.AuxV, tb.K*tb.N, "AuxV")
	checkAux(tb.AuxW, tb.R, "AuxW")
	if tb.M*tb.K+len(tb.AuxU) > tableMaxBlocks || tb.K*tb.N+len(tb.AuxV) > tableMaxBlocks ||
		tb.M*tb.N > tableMaxBlocks || len(tb.AuxW) > tableMaxWAux {
		panic("core: table " + tb.Name + ": operand set exceeds the DFS engine's fixed buffers")
	}
	check(tb.U, tb.M*tb.K+len(tb.AuxU))
	check(tb.V, tb.K*tb.N+len(tb.AuxV))
	check(tb.W, tb.R+len(tb.AuxW))
	// One canonical post-addition order: every W and AuxW row lists its
	// product terms by ascending r, then its aux terms by ascending
	// definition index (aux ids sit above the product ids, so one sort
	// by id does both). That is the order the depth-first scatter
	// (WT, auxWScatter) delivers them in, so the breadth-first chains
	// associate identically and the bits of C do not depend on which
	// policy a level happened to run under.
	for _, rows := range [][][]tableTerm{tb.W, tb.AuxW} {
		for _, row := range rows {
			sort.SliceStable(row, func(a, b int) bool { return row[a].idx < row[b].idx })
		}
	}
	tb.WT = make([][]tableTerm, tb.R)
	tb.auxWScatter = make([][]tableTerm, len(tb.AuxW))
	scatter := func(src tableTerm, target int) {
		if src.idx < tb.R {
			tb.WT[src.idx] = append(tb.WT[src.idx], tableTerm{target, src.c})
		} else {
			tb.auxWScatter[src.idx-tb.R] = append(tb.auxWScatter[src.idx-tb.R], tableTerm{target, src.c})
		}
	}
	for t, row := range tb.W {
		for _, term := range row {
			scatter(term, t)
		}
	}
	for j, row := range tb.AuxW {
		for _, term := range row {
			scatter(term, tb.M*tb.N+j)
		}
	}
	for r := 0; r < tb.R; r++ {
		if needsTemp(tb.U[r]) {
			tb.preA++
		}
		if needsTemp(tb.V[r]) {
			tb.preB++
		}
	}
	tableRegistry = append(tableRegistry, tb)
	return tableAlgBase + Alg(len(tableRegistry)-1)
}

// densifyExpanded turns sparse rows over an extended operand set
// (base blocks plus schedule aux) into dense coefficient vectors over
// the base blocks alone, substituting each aux definition — register
// guarantees aux rows reference only strictly earlier aux, so one
// in-order pass resolves every chain.
func densifyExpanded(rows, aux [][]tableTerm, base int) [][]int64 {
	auxD := make([][]int64, len(aux))
	expand := func(row []tableTerm) []int64 {
		d := make([]int64, base)
		for _, t := range row {
			if t.idx < base {
				d[t.idx] += int64(t.c)
				continue
			}
			for i, c := range auxD[t.idx-base] {
				d[i] += int64(t.c) * c
			}
		}
		return d
	}
	for j, row := range aux {
		auxD[j] = expand(row)
	}
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = expand(row)
	}
	return out
}

// Verify checks the Brent equations for tb in exact integer
// arithmetic; a nil error proves the table computes C = A·B. Any
// evaluation schedule is expanded first, so Verify proves the form the
// engine actually evaluates, CSE and all.
func (tb *Table) Verify() error {
	u := densifyExpanded(tb.U, tb.AuxU, tb.M*tb.K)
	v := densifyExpanded(tb.V, tb.AuxV, tb.K*tb.N)
	w := densifyExpanded(tb.W, tb.AuxW, tb.R)
	for i1 := 0; i1 < tb.M; i1++ {
		for j1 := 0; j1 < tb.K; j1++ {
			for j2 := 0; j2 < tb.K; j2++ {
				for l1 := 0; l1 < tb.N; l1++ {
					for i2 := 0; i2 < tb.M; i2++ {
						for l2 := 0; l2 < tb.N; l2++ {
							var sum int64
							for r := 0; r < tb.R; r++ {
								sum += u[r][i1*tb.K+j1] * v[r][j2*tb.N+l1] * w[i2*tb.N+l2][r]
							}
							var want int64
							if i1 == i2 && j1 == j2 && l1 == l2 {
								want = 1
							}
							if sum != want {
								return fmt.Errorf("core: table %s: Brent equation (i1=%d j1=%d j2=%d l1=%d i2=%d l2=%d) = %d, want %d",
									tb.Name, i1, j1, j2, l1, i2, l2, sum, want)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// VerifyTables checks every registered table; `make algtable-check`
// and TestAlgTables gate on it.
func VerifyTables() error {
	for _, tb := range tableRegistry {
		if err := tb.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Tables lists the registered table algorithms in id order (for the
// dynamic -alg help text and the verifier).
func Tables() []*Table {
	return append([]*Table(nil), tableRegistry...)
}

// --- table constructors ---------------------------------------------

// strassen222Table is Strassen's rank-7 ⟨2,2,2⟩ (Figure 1(b)) in its
// classical form: P5 = (A11+A12)·B22 with C11 = P1+P4−P5+P7. The
// transcription of the paper we reproduce from prints that sum with a
// minus sign, which is inconsistent with its own post-additions; Verify
// pins the classical identities.
// Block ids: A/B/C (i,j) -> i*2+j, so 0=11, 1=12, 2=21, 3=22.
func strassen222Table() *Table {
	return &Table{
		Name: "strassen", M: 2, K: 2, N: 2, R: 7, Base: Standard,
		U: [][]tableTerm{
			{{0, 1}, {3, 1}},  // P1: A11+A22
			{{2, 1}, {3, 1}},  // P2: A21+A22
			{{0, 1}},          // P3: A11
			{{3, 1}},          // P4: A22
			{{0, 1}, {1, 1}},  // P5: A11+A12
			{{2, 1}, {0, -1}}, // P6: A21−A11
			{{1, 1}, {3, -1}}, // P7: A12−A22
		},
		V: [][]tableTerm{
			{{0, 1}, {3, 1}},  // P1: B11+B22
			{{0, 1}},          // P2: B11
			{{1, 1}, {3, -1}}, // P3: B12−B22
			{{2, 1}, {0, -1}}, // P4: B21−B11
			{{3, 1}},          // P5: B22
			{{0, 1}, {1, 1}},  // P6: B11+B12
			{{2, 1}, {3, 1}},  // P7: B21+B22
		},
		W: [][]tableTerm{
			{{0, 1}, {3, 1}, {4, -1}, {6, 1}}, // C11 = P1+P4−P5+P7
			{{2, 1}, {4, 1}},                  // C12 = P3+P5
			{{1, 1}, {3, 1}},                  // C21 = P2+P4
			{{0, 1}, {2, 1}, {1, -1}, {5, 1}}, // C22 = P1+P3−P2+P6
		},
	}
}

// winograd222Table is Winograd's rank-7 variant (Figure 1(c)) carrying
// its defining evaluation schedule: the S/T pre-addition chains and the
// shared U-chain of post-additions — the dependencies behind the worse
// algorithmic locality the paper attributes to Winograd. The schedule
// is what distinguishes Winograd from Strassen in practice (both are
// rank 7; Winograd's 15-addition schedule beats Strassen's 18), so the
// table keeps it rather than expanding every row back to the raw block
// sums.
// Aux A ids: 4=S1=A21+A22, 5=S2=S1−A11, 6=S3=A11−A21, 7=S4=A12−S2.
// Aux B ids: 4=T1=B12−B11, 5=T2=B22−T1, 6=T3=B22−B12, 7=T4=B21−T2.
// Aux products: 7=U2=P1+P4, 8=U3=U2+P5.
func winograd222Table() *Table {
	return &Table{
		Name: "winograd", M: 2, K: 2, N: 2, R: 7, Base: Standard,
		AuxU: [][]tableTerm{
			{{2, 1}, {3, 1}},  // S1 = A21+A22
			{{4, 1}, {0, -1}}, // S2 = S1−A11
			{{0, 1}, {2, -1}}, // S3 = A11−A21
			{{1, 1}, {5, -1}}, // S4 = A12−S2
		},
		U: [][]tableTerm{
			{{0, 1}}, // P1: A11
			{{1, 1}}, // P2: A12
			{{4, 1}}, // P3: S1
			{{5, 1}}, // P4: S2
			{{6, 1}}, // P5: S3
			{{7, 1}}, // P6: S4
			{{3, 1}}, // P7: A22
		},
		AuxV: [][]tableTerm{
			{{1, 1}, {0, -1}}, // T1 = B12−B11
			{{3, 1}, {4, -1}}, // T2 = B22−T1
			{{3, 1}, {1, -1}}, // T3 = B22−B12
			{{2, 1}, {5, -1}}, // T4 = B21−T2
		},
		V: [][]tableTerm{
			{{0, 1}}, // P1: B11
			{{2, 1}}, // P2: B21
			{{4, 1}}, // P3: T1
			{{5, 1}}, // P4: T2
			{{6, 1}}, // P5: T3
			{{3, 1}}, // P6: B22
			{{7, 1}}, // P7: T4
		},
		AuxW: [][]tableTerm{
			{{0, 1}, {3, 1}}, // U2 = P1+P4
			{{7, 1}, {4, 1}}, // U3 = U2+P5
		},
		W: [][]tableTerm{
			{{0, 1}, {1, 1}},         // C11 = P1+P2
			{{7, 1}, {2, 1}, {5, 1}}, // C12 = U2+P3+P6
			{{8, 1}, {6, 1}},         // C21 = U3+P7
			{{8, 1}, {2, 1}},         // C22 = U3+P3
		},
	}
}

// glue323Table builds the rank-17 ⟨3,2,3⟩ algorithm by gluing: the
// leading 2×2 of C is exactly A[0:2,0:2]·B[0:2,0:2] (K=2 is fully
// covered), so Strassen's seven products serve it, and the ten border
// products are classical. 17 < 18 = 3·2·3 keeps it a genuine fast
// algorithm for once-padded 3-adic rectangular shapes.
func glue323Table() *Table {
	const M, K, N = 3, 2, 3
	s := strassen222Table()
	tb := &Table{Name: "fast-3x2x3", M: M, K: K, N: N, Base: Winograd}
	// Embed Strassen: A indices coincide (both grids have K=2 columns);
	// B (j,l): j*2+l -> j*N+l; C (i,l): i*2+l -> i*N+l.
	remap := func(rows [][]tableTerm, cols, newCols int) [][]tableTerm {
		out := make([][]tableTerm, len(rows))
		for r, row := range rows {
			nr := make([]tableTerm, len(row))
			for i, t := range row {
				nr[i] = tableTerm{(t.idx / cols) * newCols, t.c}
				nr[i].idx += t.idx % cols
			}
			out[r] = nr
		}
		return out
	}
	tb.U = remap(s.U, 2, K)
	tb.V = remap(s.V, 2, N)
	// W terms are product ranks, not block positions — only the row
	// order changes with the wider C grid.
	tb.W = make([][]tableTerm, M*N)
	for i := 0; i < 2; i++ {
		for l := 0; l < 2; l++ {
			tb.W[i*N+l] = s.W[i*2+l]
		}
	}
	// Border: C(i,2) for i<2, C(2,l) for l<2, and C(2,2), classical.
	addProd := func(ai, aj, bj, bl, ci, cl int) {
		r := len(tb.U)
		tb.U = append(tb.U, []tableTerm{{ai*K + aj, 1}})
		tb.V = append(tb.V, []tableTerm{{bj*N + bl, 1}})
		tb.W[ci*N+cl] = append(tb.W[ci*N+cl], tableTerm{r, 1})
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < K; j++ {
			addProd(i, j, j, 2, i, 2) // C(i,2) += A(i,j)·B(j,2)
		}
	}
	for l := 0; l < 2; l++ {
		for j := 0; j < K; j++ {
			addProd(2, j, j, l, 2, l) // C(2,l) += A(2,j)·B(j,l)
		}
	}
	for j := 0; j < K; j++ {
		addProd(2, j, j, 2, 2, 2) // C(2,2) += A(2,j)·B(j,2)
	}
	tb.R = len(tb.U)
	return tb
}

// classicalTable is the rank-M·K·N algorithm every product of which is
// one A block times one B block: product (i·N+l)·K+j is A(i,j)·B(j,l), so
// C block (i,l) takes its K products in ascending j. ⟨2,2,2⟩ is the
// paper's Figure 1(a), Standard8: eight quadrant products into
// temporaries, then the post-additions C_il = A_i1·B_1l + A_i2·B_2l. Its
// U and V rows are single +1 terms, so the engine aliases the operand
// blocks and runs no pre-addition. ⟨2,1,2⟩ is the outer-product
// partition, the second tensor factor of fast-4x2x4.
func classicalTable(name string, M, K, N int) *Table {
	tb := &Table{Name: name, M: M, K: K, N: N, R: M * K * N, Base: Standard, W: make([][]tableTerm, M*N)}
	for i := 0; i < M; i++ {
		for l := 0; l < N; l++ {
			for j := 0; j < K; j++ {
				tb.W[i*N+l] = append(tb.W[i*N+l], tableTerm{len(tb.U), 1})
				tb.U = append(tb.U, []tableTerm{{i*K + j, 1}})
				tb.V = append(tb.V, []tableTerm{{j*N + l, 1}})
			}
		}
	}
	return tb
}

// tensorTable is the Kronecker product of two bilinear algorithms: a
// ⟨m1,k1,n1⟩ rank-R1 and ⟨m2,k2,n2⟩ rank-R2 compose into a
// ⟨m1m2,k1k2,n1n2⟩ rank-R1·R2 algorithm. fast-4x2x4 is
// winograd ⊗ classical-2x1x2: rank 28 < 32.
// expandSchedule returns an aux-free table over the same bilinear
// form, with every schedule reference substituted back into base-block
// rows — the input to constructions (like tensorTable) whose index
// arithmetic reads base ids. Tables without a schedule pass through.
func (tb *Table) expandSchedule() *Table {
	if len(tb.AuxU)+len(tb.AuxV)+len(tb.AuxW) == 0 {
		return tb
	}
	sparsify := func(dense [][]int64) [][]tableTerm {
		rows := make([][]tableTerm, len(dense))
		for i, d := range dense {
			for idx, c := range d {
				if c != 0 {
					rows[i] = append(rows[i], tableTerm{idx, int(c)})
				}
			}
		}
		return rows
	}
	return &Table{
		Name: tb.Name, M: tb.M, K: tb.K, N: tb.N, R: tb.R, Base: tb.Base,
		U: sparsify(densifyExpanded(tb.U, tb.AuxU, tb.M*tb.K)),
		V: sparsify(densifyExpanded(tb.V, tb.AuxV, tb.K*tb.N)),
		W: sparsify(densifyExpanded(tb.W, tb.AuxW, tb.R)),
	}
}

func tensorTable(name string, x, y *Table, base Alg) *Table {
	// The cross-product index arithmetic below reads base-block ids,
	// so scheduled factors contribute their expanded form.
	x, y = x.expandSchedule(), y.expandSchedule()
	tb := &Table{
		Name: name,
		M:    x.M * y.M, K: x.K * y.K, N: x.N * y.N,
		R: x.R * y.R, Base: base,
	}
	// cross merges an outer-factor row with an inner-factor row: outer
	// block (ro,co) and inner block (ri,ci) compose into block
	// (ro*innerRows+ri, co*innerCols+ci) of the combined grid.
	cross := func(a, b []tableTerm, aCols, innerRows, innerCols, outCols int) []tableTerm {
		var out []tableTerm
		for _, ta := range a {
			for _, tb2 := range b {
				row := (ta.idx/aCols)*innerRows + tb2.idx/innerCols
				col := (ta.idx%aCols)*innerCols + tb2.idx%innerCols
				out = append(out, tableTerm{row*outCols + col, ta.c * tb2.c})
			}
		}
		return out
	}
	for r1 := 0; r1 < x.R; r1++ {
		for r2 := 0; r2 < y.R; r2++ {
			tb.U = append(tb.U, cross(x.U[r1], y.U[r2], x.K, y.M, y.K, tb.K))
			tb.V = append(tb.V, cross(x.V[r1], y.V[r2], x.N, y.K, y.N, tb.N))
		}
	}
	tb.W = make([][]tableTerm, tb.M*tb.N)
	for t1 := 0; t1 < x.M*x.N; t1++ {
		for t2 := 0; t2 < y.M*y.N; t2++ {
			i := (t1/x.N)*y.M + t2/y.N
			l := (t1%x.N)*y.N + t2%y.N
			var row []tableTerm
			for _, wa := range x.W[t1] {
				for _, wb := range y.W[t2] {
					row = append(row, tableTerm{wa.idx*y.R + wb.idx, wa.c * wb.c})
				}
			}
			tb.W[i*tb.N+l] = row
		}
	}
	return tb
}

// laderman333Table is a rank-23 ⟨3,3,3⟩ algorithm in the Laderman
// (1976) family: the 23 A-side factors are Laderman's, and the two
// B-side factors of the a22/a32 products plus the full W matrix were
// re-derived from the Brent equations by exact rational elimination
// (every coefficient lands in {−1,+1}; Verify proves the identity).
// 23 < 27 makes it the repo's fastest algorithm on 3-adic-friendly
// shapes, where Winograd must pad to the next power of two.
// Block ids: (i,j) -> i*3+j, zero-based.
func laderman333Table() *Table {
	return &Table{
		Name: "laderman-3x3x3", M: 3, K: 3, N: 3, R: 23, Base: Winograd,
		U: [][]tableTerm{
			{{0, 1}, {1, 1}, {2, 1}, {3, -1}, {4, -1}, {7, -1}, {8, -1}}, // m1
			{{0, 1}, {3, -1}},         // m2: a11−a21
			{{4, 1}},                  // m3: a22
			{{0, -1}, {3, 1}, {4, 1}}, // m4: −a11+a21+a22
			{{3, 1}, {4, 1}},          // m5: a21+a22
			{{0, 1}},                  // m6: a11
			{{0, -1}, {6, 1}, {7, 1}}, // m7: −a11+a31+a32
			{{0, -1}, {6, 1}},         // m8: −a11+a31
			{{6, 1}, {7, 1}},          // m9: a31+a32
			{{0, 1}, {1, 1}, {2, 1}, {4, -1}, {5, -1}, {6, -1}, {7, -1}}, // m10
			{{7, 1}},                  // m11: a32
			{{2, -1}, {7, 1}, {8, 1}}, // m12: −a13+a32+a33
			{{2, 1}, {8, -1}},         // m13: a13−a33
			{{2, 1}},                  // m14: a13
			{{7, 1}, {8, 1}},          // m15: a32+a33
			{{2, -1}, {4, 1}, {5, 1}}, // m16: −a13+a22+a23
			{{2, 1}, {5, -1}},         // m17: a13−a23
			{{4, 1}, {5, 1}},          // m18: a22+a23
			{{1, 1}},                  // m19: a12
			{{5, 1}},                  // m20: a23
			{{3, 1}},                  // m21: a21
			{{6, 1}},                  // m22: a31
			{{8, 1}},                  // m23: a33
		},
		V: [][]tableTerm{
			{{4, 1}},          // m1: b22
			{{1, -1}, {4, 1}}, // m2: −b12+b22
			{{0, -1}, {1, 1}, {3, 1}, {4, -1}, {5, -1}, {6, -1}, {8, 1}}, // m3
			{{0, 1}, {1, -1}, {4, 1}},                                    // m4: b11−b12+b22
			{{0, -1}, {1, 1}},                                            // m5: −b11+b12
			{{0, 1}},                                                     // m6: b11
			{{0, 1}, {2, -1}, {5, 1}},                                    // m7: b11−b13+b23
			{{2, 1}, {5, -1}},                                            // m8: b13−b23
			{{0, -1}, {2, 1}},                                            // m9: −b11+b13
			{{5, 1}},                                                     // m10: b23
			{{0, -1}, {2, 1}, {3, 1}, {4, -1}, {5, -1}, {6, -1}, {7, 1}}, // m11
			{{4, 1}, {6, 1}, {7, -1}},                                    // m12: b22+b31−b32
			{{4, 1}, {7, -1}},                                            // m13: b22−b32
			{{6, 1}},                                                     // m14: b31
			{{6, -1}, {7, 1}},                                            // m15: −b31+b32
			{{5, 1}, {6, 1}, {8, -1}},                                    // m16: b23+b31−b33
			{{5, 1}, {8, -1}},                                            // m17: b23−b33
			{{6, -1}, {8, 1}},                                            // m18: −b31+b33
			{{3, 1}},                                                     // m19: b21
			{{7, 1}},                                                     // m20: b32
			{{2, 1}},                                                     // m21: b13
			{{1, 1}},                                                     // m22: b12
			{{8, 1}},                                                     // m23: b33
		},
		W: [][]tableTerm{
			{{5, 1}, {13, 1}, {18, 1}},                                   // c11 = m6+m14+m19
			{{0, 1}, {3, 1}, {4, 1}, {5, 1}, {11, 1}, {13, 1}, {14, 1}},  // c12
			{{5, 1}, {6, 1}, {8, 1}, {9, 1}, {13, 1}, {15, 1}, {17, 1}},  // c13
			{{1, 1}, {2, 1}, {3, 1}, {5, 1}, {13, 1}, {15, 1}, {16, 1}},  // c21
			{{1, 1}, {3, 1}, {4, 1}, {5, 1}, {19, 1}},                    // c22
			{{13, 1}, {15, 1}, {16, 1}, {17, 1}, {20, 1}},                // c23
			{{5, 1}, {6, 1}, {7, 1}, {10, 1}, {11, 1}, {12, 1}, {13, 1}}, // c31
			{{11, 1}, {12, 1}, {13, 1}, {14, 1}, {21, 1}},                // c32
			{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {22, 1}},                    // c33
		},
	}
}

// strassenLowMemTable is Section 5's space-conserving variant: "If we
// were interested only in sequential computation, and wished to
// conserve space, we would intersperse recursive calls with pre- and
// post-additions." It is Strassen's table run depth-first at every
// level — one S-, one T- and one P-shaped scratch per level, the seven
// products one after another, each scattered into C as soon as it is
// ready — and admission runs it serially ("of course, there is no
// parallelism in such a code"). Its leaf products read scratch that is
// reused immediately, which is why the paper sees it behave like the
// standard algorithm with respect to layouts.
func strassenLowMemTable() *Table {
	tb := strassen222Table()
	tb.Name, tb.depthFirst = "strassen-lowmem", true
	return tb
}

// tableAlgs registers the built-in table family in one initializer so
// every other package-level var (Algs, the named ids below) depends on
// it explicitly — Go's init-order analysis then guarantees the registry
// is populated before anyone reads it. The first four land on the ids
// Standard8, Strassen, Winograd and StrassenLowMem (tableAlgBase).
var tableAlgs = func() []Alg {
	return []Alg{
		register(classicalTable("standard8", 2, 2, 2)),
		register(strassen222Table()),
		register(winograd222Table()),
		register(strassenLowMemTable()),
		register(glue323Table()),
		register(tensorTable("fast-4x2x4", winograd222Table(), classicalTable("classical-2x1x2", 2, 1, 2), Winograd)),
		register(laderman333Table()),
	}
}()

// The rectangular tables' ids, registered after the four ⟨2,2,2⟩
// entries. Their names follow the ⟨m,k,n⟩ convention so the -alg help
// text reads as the algorithm family.
var (
	TableFast323     = tableAlgs[4]
	TableFast424     = tableAlgs[5]
	TableLaderman333 = tableAlgs[6]
)
