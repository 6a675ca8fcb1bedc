GO ?= go

.PHONY: check build vet fmt test race wakegate loc loc-gate determinism parity streamparity fringe factor stress soak bench bench-kernel fuzz obs-gate trace-smoke omcheck asm-check algtable-check

check: build vet fmt loc-gate race wakegate determinism parity streamparity fringe factor stress soak obs-gate trace-smoke omcheck asm-check algtable-check

# The sizes every simplicity change quotes (and ROADMAP.md tracks):
# non-test lines of the core, the layout functions, the leaf kernels,
# the scheduler, the daemon, the observability layer, the Figure 1
# tracer and the BLAS-3 layer.
loc:
	@for d in internal/core internal/layout internal/leaf internal/sched internal/serve internal/obs internal/trace internal/blas3; do \
		echo "$$d $$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"; done

# The size ratchet: the non-test lines of every package `make loc` lists,
# and of internal/layout, may not exceed what the last change to shrink
# each landed at (ROADMAP.md's targets: 4,800 for the core, 4,000 for
# serve + obs). A change that shrinks a package lowers its figure; none
# raises it, with nine recorded exceptions, five of the core's and four
# of the leaf's: the core's went 5,036 → 5,075
# when the standard recursion's serial base became a loop over memoized
# tile-position tables (exec.base, posFor, tileAddr), net of the
# quadrant descent and leafMul it replaced. It came down to 4,914 when
# those tables became the core's one tile address — pack, unpack, the
# in-layout transpose and the additions across orientations find tiles
# through them, and the permutation, tile-map and coordinate tables went
# — and to 4,839 when the table verifier, reached only by its tests,
# moved into table_test.go; then to 4,799 when GEMMCtx, GEMMPrepacked and
# the tiled multiply (MulTiledCtx, since folded into MulPrepacked) became
# one multiply run (call.multiply) with one check of
# packed operands (conformPlans), and the <2,2,2> partition every table
# has became constants; then to 4,699 when a batch member and a single
# call became one member body (wave.body) in one run, a single call
# being a wave of one; then to 4,656 when a transient plan over the
# MemBudget came to be packed by the blocks that multiply it and the
# budget group walk went; then to 4,655 when a deferred segment came to
# be read in place, paid for by the residual probe's sample becoming a
# view copy; and the second exception, 4,655 → 4,695, when a product of
# one block of at most 8 tiles a side came to be multiplied where it lies
# (its operands read in place, a β = 0, α = 1 product accumulated into C
# in place, C zeroed again if its block fails); and the third,
# 4,695 → 4,706, when the standard recursion's first product came to
# store into each C tile (the first flag through mul, std and base, no
# tile zero-fill ahead of it, and a β = 0 C whose blocks one runner walks
# stored by them and zeroed again where they failed); and the fourth,
# 4,706 → 4,736, when a member wave's runner came to prefetch the member
# it claims one ahead (wave.prefetch, its size window, the claim in
# pullWave) and every runner slot to run its own index first and give
# its buffers back when the wave drains; and the fifth, 4,736 → 4,760,
# when a serial base over canonical tiles came to make one leaf call per
# square of up to 256 elements a side (exec.base, mergeSide), a
# one-block product on off-grid tiles to copy what it copies into
# canonical panels (wave.body), and the note above std to bound a run by
# that call. It came down to 4,759 when that call became the plain store
# or accumulate call, a chained kernel's fringe chaining from C; and the
# sixth, 4,759 → 4,779, when a plan came to serve partners of any width
# by descending into its own quadrants (split, planA, Prepacked.quads and
# cut, conformPlans reading the descent off the depths, planMul carrying
# the plan's segments) and a direct call to read A through the same
# quadrants where they tile as well as its split, PartnerDim,
# conformSegs and chooseGeom going — together with the serve package's
# fall below, the two grew by 5 lines. It came down to 4,773 when a
# packed operand became a one-block plan (Pack; NewProduct's zeroed C
# plan, into whose blocks MulPrepacked accumulates) and PackTiled,
# MulTiled(Ctx), ConformTiled, whole, the wave's tiled C, given.resident
# and charge.own went (NewTiled, used by tests alone, moved to them),
# and to 4,772 when the β = 0 epilogue came to store α·t; and the
# seventh, 4,772 → 4,812, when a partner narrower than A's tiles came to
# be stored as column-major panels, B and the product tile (geom.hdrB,
# planMul.block), and the serial base to make one call per row tile and
# k run over such a panel's whole width (exec.base's one loop over the
# tile, square and panel forms), with the in-layout transpose reading
# either storage, net of planA taking the split's own segments. It came
# down to 4,800, and obs's to 1,697, when every block's epilogue came to
# apply β and the up-front β pass (exec.scaleC, obs.KindScale), the
# β = 0 fork on runner count and the wave's completion counter went.
# The serve
# package's went 2,580 → 2,568 when every request group came to make one
# batch call, and to 2,553 when one plan came to serve every width
# (partnerBucket and the width in the plan key went). The leaf's went 1,133 → 917 when every
# register-blocked family came to read every tile in place, strided or
# contiguous (packedMul is its one body): the packed-panel micro-kernels
# (pp in Go, AVX2, AVX-512 and NEON), packB and packedRows went, and
# packA builds only the one zero-padded block of fringe rows; its one
# exception, 917 → 940, is the store entries: every registered kernel's
# store form (leaf.Impl.Store, plain's clear + Kern, packedMul's store
# flag into the amd64 panels); its second, 940 → 962, the prefetch
# entry (leaf.Prefetch and each architecture's prefetchCols); its third,
# 962 → 968, the 32-row AVX-512 body's Go declaration, its place at the
# head of the avx512 chain (32 → 16 → 8) and the note that a family's
# block height is a power of two, which packedMul masks by; its fourth,
# 968 → 1,071, leaf.Impl.Chained and packedMul's chain mode (fringeC,
# addBlock's copy) and split, with a grid entry (gridMul) that summed
# each tile's fringe per k tile as the tile loop then rounded it. The
# grid entry went, 1,071 → 997, when a chained family's fringe came to
# chain from C like its full blocks: Impl.Chained is a bool, and one
# call over a region of tiles has the tile loop's bits on any tile. It
# came down to 943 when the CPUID probe moved to internal/cpu, which the
# seeded fill in internal/matrix reads too, and to 896 when every
# register-blocked family came to chain from C: microImpl.chained, the
# chain flags of fringeC and addBlock, addBlock's add loop and Auto's
# branch to blocked for tiles under one block went. It rose to 919
# for the panels' pack destination: packedMul's choice to pack a strided
# A (mulBlocks), Scratch.pk, and the run each link of the chain packs or
# reads (fullBlocks, blocks, the panel field and declarations). The
# layout package's S functions, Perm and SOriented are what the core's
# tests check its tables against. Test files are the ones named
# *_test.go.
CORE_LOC_MAX = 4800
LAYOUT_LOC_MAX = 506
LEAF_LOC_MAX = 919
SCHED_LOC_MAX = 908
BLAS3_LOC_MAX = 460
SERVE_LOC_MAX = 2553
OBS_LOC_MAX = 1697
TRACE_LOC_MAX = 187
loc-gate:
	@for p in core:$(CORE_LOC_MAX) layout:$(LAYOUT_LOC_MAX) leaf:$(LEAF_LOC_MAX) sched:$(SCHED_LOC_MAX) blas3:$(BLAS3_LOC_MAX) serve:$(SERVE_LOC_MAX) obs:$(OBS_LOC_MAX) trace:$(TRACE_LOC_MAX); do d=internal/$${p%:*}; max=$${p#*:}; \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l); \
		if [ $$n -gt $$max ]; then echo "$$d has $$n non-test lines, the ratchet is at $$max"; exit 1; fi; \
		echo "$$d $$n non-test lines (ratchet $$max)"; done

# The determinism gate: the result of a GEMM is a pure function of
# (operands, shape, algorithm, kernel, fast cutoff). Table algorithms
# with every level breadth-first, depth-first and in between (and a fast
# call's span and arena beside a busy pool), 1 to 16 workers, every
# entry point on split shapes (per-call, batch, strided batch, prepacked, prepacked
# batch), a mixed batch against its single calls, and Algorithm Auto
# through every entry point must all agree bit for bit, at every
# GOMAXPROCS; the two amd64 assembly families, avx2 and avx512, are one
# rounding class (TestDeterminismSIMDFamilies); and a call that names no
# kernel is the call that names the one it reports, because the default
# kernel is a rule over CPU features, not a measurement
# (TestDeterminismDefaultKernel); and so is the default fast cutoff, over
# (kernel family, tile shape, the table's passes): nine cold processes at
# GOMAXPROCS 1, 2 and 4 plan Auto, Strassen and Winograd byte for byte
# alike (TestDeterminismAutoColdProcesses). What is built on GEMM
# inherits it: a Cholesky factor, an LU's packed factors and pivots, and
# a 48-column solve through either are one set of bits over four layouts
# and 1, 2 and 4 workers (internal/blas3's TestDeterminismCholesky and
# TestDeterminismLU). And the unset layout, which resolves to Z-Morton,
# returns what naming Z-Morton and naming ColMajor return, through GEMM,
# GEMMBatch, Pack + MulPacked, Prepack + GEMMPrepacked, Cholesky and LU at
# 1, 2 and 4 workers (the root package's TestDeterminismDefaultLayout).
# On a chained kernel (every register-blocked family: packed8x4, avx2,
# avx512, neon) the tile size is not in the bits either: a Standard
# product is one set of bits over every ForceTile from 8 to 64, three
# layouts and three entry points (TestDeterminismTileInvariant). And on
# the default kernel Standard has a closed form: every entry point, the
# daemon's handler included, equals a scalar loop — the ascending-k FMA
# chain from +0, then fl(α·t) at β = 0 and fl(β·c) + fl(α·t) otherwise —
# bit for bit, on thin tiles too (TestDeterminismStandardOracle).
determinism:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Determinism|BatchMatches' ./internal/core ./internal/blas3 .

# The parity gate: with the library's defaults (the host's default
# kernel, the crossover rule's fast cutoff) Algorithm Auto must not be
# more than 5% slower than Standard at 1024³ and 2048³ on Z-Morton and
# 256³ column-major, nor — so that the gate times Auto running Winograd
# whatever the host's default family — naming avx2 at 2048³ (one fast
# level) and packed8x4 at 1024³ (three): interleaved rounds, median of
# the paired time ratios, ~45 s. It is a timing comparison and so not a
# tier-1 test; it prints the cutoff and the fast levels Auto resolved to
# and, at 2048³, Winograd by name at the rule's cutoff and at half of it
# ("rule conservative by a level" when the half wins by more than 5%).
# Nor may nil options be more than 5% slower than the same call naming
# Z-Morton, which the unset layout resolves to: recmat.Mul at 1024³ (2.3×
# while the unset layout was ColMajor) and Engine.Cholesky at 1024².
parity:
	$(GO) run ./cmd/experiments -exp autoparity

# The stream gate, two-sided: on the serving shape (1024×1024 · 1024×48,
# library defaults, min(nproc, 4) workers) a per-call DGEMM — whose
# blocks read each of A's 64 segments in place, at the caller's leading
# dimension — must take between 0.90 and 1.15 times as long as
# PrepackConforming + GEMMPrepacked on the same operands, which read a
# plan of A packed once: both sides read 8 MB of A and convert only B
# and C, and the gate fails when the per-call converts more than that
# (A was copied). Above 1.15 the per-call path has grown a cost of its
# own (while its blocks packed A the ratio read 1.24–1.37 on a 2-CPU
# AVX-512 host, under a ceiling of 1.45; reading A in place, 1.00–1.01,
# then 1.06–1.08); below 0.90 the resident plan's wave is being starved,
# which is what a scheduler that starts the wave's second runner late
# looks like. When a thin partner's leaves became panels (a row tile by
# two k tiles over the block's width) the ratio rose to 1.14–1.17 on that
# host: the plan's contiguous A tiles gained 7–10%, and the per-call's A,
# read in place at ld 1024, left L1 between the panel's 12 column blocks
# (its 64 columns share four L1 sets). Since the leaf packs a strided A
# in its first column block, into per-worker scratch and not through a
# conversion, the ratio reads 1.03–1.05 and the premise still holds.
# Interleaved pairs, median of the paired time ratios, ~20 s; a timing
# comparison like parity, and not a tier-1 test.
streamparity:
	$(GO) run ./cmd/experiments -exp streamparity

# The fringe gate: a shape whose tiles are off the micro-kernel grid —
# 512×512×n through one plan for n = 6…72, n³ per call for n = 100…500 —
# must run at no less than 0.45 of the rate of the nearest shape whose
# tiles are whole register blocks (interleaved pairs, median of the
# paired rate ratios, ~40 s). The rows and columns past a tile's last
# full block run through the kernel's block body on zero-padded
# operands and read 0.59–0.85 on the plan rows (0.53–0.70 while plans
# were cut per partner width, 68 columns then padded to 80 in 5-wide
# tiles, each doing an 8-wide one's work, 0.53 at best) and 0.62–0.81 on
# the n³ ones (0.47–0.59 while a chained kernel's merged base recomputed
# each tile's fringe per k tile); as one scalar FMA chain per element
# they read 0.10–0.30 on the width sweep. 0.45 and not more, because a
# padded block computes lanes nobody reads. A timing comparison like
# parity, and not a tier-1 test.
fringe:
	$(GO) run ./cmd/experiments -exp fringe

# The factorization gate, and the tree's measurement of the solver
# layer: Cholesky and LU at 512², 1024² and 2048² beside the same run's
# Standard GEMM, Z-Morton and ColMajor by name, interleaved rounds, median of
# five (~1 min). Both are the same recursion over the same GEMM, so a
# 2048² LU under half a Cholesky's rate means a step of it has left the
# GEMM-backed recursion: 0.11–0.16 while LU's triangular solves and the
# right half of every panel were scalar loops, 1.0–1.7 since. A timing
# comparison like parity, and not a tier-1 test.
factor:
	$(GO) run ./cmd/experiments -exp factor

# The algorithm-table gate: the three registered <2,2,2> coefficient
# tables (standard8, strassen, winograd) must satisfy
# the Brent equations in exact integer arithmetic — the proof that each
# computes matrix product, run against all 64 equations per table (see
# internal/core/table.go). A Table states no other partition: the engine
# splits grids in quadrants only.
algtable-check:
	$(GO) test -run 'TestAlgTables' -count=1 -v ./internal/core

# The assembly hygiene gate. vet's asmdecl checker cross-validates every
# .s frame layout against its Go declaration, on both architectures —
# on amd64 the three instances of the one panel body (panel8x4AVX2,
# panel16x4AVX512, panel32x4AVX512), whose frames are one signature,
# the CPUID probe (internal/cpu) and the AVX-512 seeded fill
# (internal/matrix's seedFillAVX512);
# the noasm build and tests prove the pure-Go fallback stands alone (it
# is what non-amd64/arm64 hosts and `-tags noasm` users run), Standard's
# bitwise specification holds on its default kernel, packed8x4, under
# noasm and under RECMAT_NOSIMD (TestDeterminismStandardOracle), and the
# RECMAT_NOSIMD run that the scalar fill still gives the golden stream;
# the cross-compiles assemble both architectures' kernels so an edit to
# one .s file cannot silently break the other GOARCH.
asm-check:
	$(GO) vet ./internal/leaf ./internal/cpu ./internal/matrix
	GOARCH=arm64 $(GO) vet ./internal/leaf ./internal/cpu ./internal/matrix
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./internal/leaf ./internal/matrix
	$(GO) test -tags noasm -count=1 -run StandardOracle ./internal/core
	RECMAT_NOSIMD=1 $(GO) test -count=1 -run StandardOracle ./internal/core
	RECMAT_NOSIMD=1 $(GO) test -count=1 -run SeedFill ./internal/matrix
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The format gate: gofmt lists no file of the tree.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The wake-up gate: the scheduler waits on events and on no timer, so a
# lost wake-up is a hang and not a millisecond. The park/wake tests —
# the steal sweep that is a parker's last look, spawn and join wake-ups
# raced against workers on their way into park (TestStressParkWake),
# Close and cancellation reaching a parked sync, an idle pool's silence,
# a shielded frame outliving its run's cancellation and not the pool's
# Close — twenty times under the race detector at 1, 2 and 4 Ps (~4 min).
wakegate:
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'Park|Wake|Quiescent|StealSweep|Shield' ./internal/sched

# Fault-injection stress: the TestStress* suites run under the race
# detector with probabilistic panic/alloc/delay faults enabled at every
# instrumented site (see internal/faultinject). RECMAT_FAULTS overrides
# the default rates.
RECMAT_FAULTS ?= panic=0.002,alloc=0.005,delay=0.005/50us,seed=7
stress:
	RECMAT_FAULTS='$(RECMAT_FAULTS)' $(GO) test -race -count=3 -run 'Stress' . ./internal/core ./internal/sched

# The serving-daemon chaos soak: the closed-loop multi-tenant load
# generator drives an in-process recmatd at 4x its admission limit for
# RECMAT_SOAK (default 60s) under the race detector, with faultinject
# firing panics, delays, and allocation failures inside the engine the
# whole time. The test asserts the daemon's robustness contract: it
# sheds instead of wedging, every failure is a typed error kind,
# identical request specs agree on their result norm (and one replayed
# spec, per algorithm that ran it, on the bits of C), and drain leaves
# no goroutine and no in-flight request behind. The soak runs twice:
# once on the broad mixed workload and once on the batch workload
# (RECMAT_SOAK_WORKLOAD=batch), whose same-key named requests keep the
# request coalescer's batched waves under chaos for the whole run.
RECMAT_SOAK ?= 60s
soak:
	RECMAT_SOAK='$(RECMAT_SOAK)' $(GO) test -race -count=1 -run 'TestChaosSoak|TestSoakResultConsistency' -v -timeout 10m ./internal/serve
	RECMAT_SOAK='$(RECMAT_SOAK)' RECMAT_SOAK_WORKLOAD=batch $(GO) test -race -count=1 -run 'TestChaosSoak' -v -timeout 10m ./internal/serve

# The observability gates. obs-gate bounds the disabled-tracer cost —
# tracepoints-per-multiply × per-tracepoint nil-check cost, both
# measured in one process — at 2% of an n=512 multiply's wall time,
# bounds the serving layer's always-on request-ledger cost at 2% of the
# smallest plausible request, and validates a traced 512³ Strassen
# export. trace-smoke exercises the CLI path end to end: cmd/matmul
# writes a Chrome trace and cmd/tracecheck re-validates the file the
# way Perfetto would load it. omcheck is the OpenMetrics conformance
# gate: the /metricz text exposition (and the renderer underneath it)
# must pass the strict lint — counter/gauge/histogram suffix contracts,
# cumulative le buckets, +Inf == _count, terminal # EOF.
obs-gate:
	RECMAT_OBS_GATE=1 $(GO) test -run 'TestObsGate' -count=1 -v .

trace-smoke:
	$(GO) run ./cmd/matmul -m 512 -alg strassen -layout z -trace /tmp/recmat_trace.json > /dev/null
	$(GO) run ./cmd/tracecheck -stats /tmp/recmat_trace.json

omcheck:
	$(GO) test -run 'TestOpenMetricsRoundTrip|TestLintOpenMetricsRejects' -count=1 -v ./internal/obs
	$(GO) test -run 'TestMetriczOpenMetrics' -count=1 -v ./internal/serve

# The repository benchmark (BENCHMARK.json, benchmark/README.md): six
# workloads, end-to-end metrics with tracing off, results appended to
# /tmp/bench_head.json. There is no committed baseline: a claim is a
# paired comparison of two such files from the same host and session,
#   go run ./benchmark -compare /tmp/bench_parent.json /tmp/bench_head.json
# which applies each metric's own bound.
bench:
	$(GO) run ./benchmark -o /tmp/bench_head.json

# The kernel acceptance benchmark, and the one place kernels are timed
# against each other: every registered kernel — packed pure-Go tiers and
# whatever assembly kernels the host unlocked — against the paper's
# unrolled4, including the 512³ GFLOPS shootout (BenchmarkKernels512)
# that gates the SIMD step function. Both benchmarks report GFLOPS per
# kernel and print, first, the analytic one-core peaks to read them
# against: lanes × 2 FMA pipes × 2 × the nominal GHz of /proc/cpuinfo for
# AVX2 and AVX-512 ("unknown" without one). BenchmarkKernelTile prints,
# after each tile shape (8³, 32³, 64³, the off-grid ones, the stream
# and daemon workloads' 32×12×32 and 32×4×32 tiles and the panel leaves
# that replace them, 32×48×64, 32×16×64 and 32×40×64), the measured
# ranking with the default rule's pick (leaf.Auto), flagged BEHIND when
# it is more than 10% under the fastest — the check that the rule is
# still right on this host. On amd64, BenchmarkKernelAVX512Rows
# interleaves the avx512 family's 32-row block with its 16-row
# remainder body on 32³ and 64³ tiles and reports the time ratio.
# BenchmarkSeedFill times the seeded-operand fill in GB/s at the daemon's
# operand sizes (512×16, 512×64, 256²) and the benchmark probe's 1 Mi
# elements, on whichever body the host runs (RECMAT_NOSIMD=1: the loop).
bench-kernel:
	$(GO) test -bench 'Kernel' -benchmem ./internal/leaf
	$(GO) test -run '^$$' -bench 'SeedFill' ./internal/matrix

fuzz:
	$(GO) test -fuzz FuzzKernelsVsNaive -fuzztime 30s ./internal/leaf
