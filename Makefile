GO ?= go

.PHONY: check build vet test race wakegate loc loc-gate determinism parity streamparity fringe factor stress soak bench bench-kernel fuzz obs-gate trace-smoke omcheck asm-check algtable-check

check: build vet loc-gate race wakegate determinism parity streamparity fringe factor stress soak obs-gate trace-smoke omcheck asm-check algtable-check

# The sizes every simplicity change quotes (and ROADMAP.md tracks):
# non-test lines of the core, the leaf kernels, the scheduler, the
# daemon, the observability layer, the Figure 1 tracer and the BLAS-3
# layer.
loc:
	@for d in internal/core internal/leaf internal/sched internal/serve internal/obs internal/trace internal/blas3; do \
		echo "$$d $$(ls $$d/*.go | grep -v _test | xargs cat | wc -l)"; done

# The size ratchet: the non-test lines of internal/core, internal/leaf,
# internal/blas3, internal/serve and internal/obs may not exceed what
# the last change to shrink each landed at (ROADMAP.md's targets: 5,000
# for the core, 4,000 for serve + obs). A change that shrinks a package
# lowers its figure; none raises it.
CORE_LOC_MAX = 5556
LEAF_LOC_MAX = 1133
BLAS3_LOC_MAX = 460
SERVE_LOC_MAX = 2583
OBS_LOC_MAX = 1700
loc-gate:
	@for p in core:$(CORE_LOC_MAX) leaf:$(LEAF_LOC_MAX) blas3:$(BLAS3_LOC_MAX) serve:$(SERVE_LOC_MAX) obs:$(OBS_LOC_MAX); do d=internal/$${p%:*}; max=$${p#*:}; \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); \
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
# kernel is a rule over CPU features and tile shape, not a measurement
# (TestDeterminismDefaultKernel); and so is the default fast cutoff, over
# (kernel family, tile shape, the table's passes): nine cold processes at
# GOMAXPROCS 1, 2 and 4 plan Auto, Strassen and Winograd byte for byte
# alike (TestDeterminismAutoColdProcesses). What is built on GEMM
# inherits it: a Cholesky factor, an LU's packed factors and pivots, and
# a 48-column solve through either are one set of bits over four layouts
# and 1, 2 and 4 workers (internal/blas3's TestDeterminismCholesky and
# TestDeterminismLU).
determinism:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Determinism|BatchMatches' ./internal/core ./internal/blas3

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
parity:
	$(GO) run ./cmd/experiments -exp autoparity

# The stream gate, two-sided: on the serving shape (1024×1024 · 1024×48,
# library defaults, min(nproc, 4) workers) a per-call DGEMM — A's 64
# segments packed by the blocks that multiply them — must take between
# 1.00 and 1.45 times as long as PrepackConforming + GEMMPrepacked on
# the same operands, which read a plan of A packed once. Above 1.45 the
# pack has become dear (written out as a plan and read back it would
# read 1.8–2.0; in the wave it reads 1.24–1.37 on the 2-CPU builder
# host, more when the host's memory is slow); below 1.00 the resident
# plan is slower than packing 8 MB per call, which is what a scheduler
# that starts the wave's second runner late looks like (0.95–1.02 when
# idle workers polled on a timer). Interleaved pairs, median of the
# paired time ratios, ~20 s; a timing comparison like parity, and not a
# tier-1 test.
streamparity:
	$(GO) run ./cmd/experiments -exp streamparity

# The fringe gate: a shape whose tiles are off the micro-kernel grid —
# 512×512×n through a plan for n = 6…72, n³ per call for n = 100…500 —
# must run at no less than 0.45 of the rate of the nearest shape whose
# tiles are whole register blocks (interleaved pairs, median of the
# paired rate ratios, ~40 s). The rows and columns past a tile's last
# full block run through the kernel's block body on zero-padded
# operands and read 0.54–0.77; as one scalar FMA chain per element they
# read 0.10–0.30 on the width sweep. 0.45 and not more, because a padded
# block computes lanes nobody reads: 68 columns padded to 80 in 5-wide
# tiles, each doing an 8-wide one's work, reach 0.53 at best. A timing
# comparison like parity, and not a tier-1 test.
fringe:
	$(GO) run ./cmd/experiments -exp fringe

# The factorization gate, and the tree's measurement of the solver
# layer: Cholesky and LU at 512², 1024² and 2048² beside the same run's
# Standard GEMM, Z-Morton and opts == nil, interleaved rounds, median of
# five (~1 min). Both are the same recursion over the same GEMM, so a
# 2048² LU under half a Cholesky's rate means a step of it has left the
# GEMM-backed recursion: 0.11–0.16 while LU's triangular solves and the
# right half of every panel were scalar loops, 1.0–1.7 since. A timing
# comparison like parity, and not a tier-1 test.
factor:
	$(GO) run ./cmd/experiments -exp factor

# The algorithm-table gate: every registered bilinear <m,k,n>
# coefficient table must satisfy the Brent equations in exact integer
# arithmetic — the proof that the table computes matrix product, run
# against all mk*kn*mn equations per table (see internal/core/table.go).
algtable-check:
	$(GO) test -run 'TestAlgTables' -count=1 -v ./internal/core

# The assembly hygiene gate. vet's asmdecl checker cross-validates every
# .s frame layout against its Go declaration; the noasm build and test
# prove the pure-Go fallback stands alone (it is what non-amd64/arm64
# hosts and `-tags noasm` users run); the cross-compiles assemble both
# architectures' kernels so an edit to one .s file cannot silently break
# the other GOARCH.
asm-check:
	$(GO) vet ./internal/leaf
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./internal/leaf
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# after 8³, 32³ and 64³, the measured ranking with the default rule's
# pick (leaf.Auto), flagged BEHIND when it is more than 10% under the
# fastest — the check that the rule is still right on this host.
bench-kernel:
	$(GO) test -bench 'Kernel' -benchmem ./internal/leaf

fuzz:
	$(GO) test -fuzz FuzzKernelsVsNaive -fuzztime 30s ./internal/leaf
