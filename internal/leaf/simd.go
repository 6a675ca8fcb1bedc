package leaf

import (
	"os"
	"sort"
)

// Runtime CPU dispatch for the hardware micro-kernels.
//
// Each GOARCH with assembly kernels (currently amd64 with AVX2/FMA and
// AVX-512F, arm64 with NEON) provides two hooks behind the `!noasm`
// build tag:
//
//   - archFeatures() — the SIMD capabilities the CPU and OS actually
//     support, probed once at startup (CPUID + XGETBV on amd64, the
//     auxv HWCAP vector on linux/arm64). Purely informational: it is
//     reported through Features regardless of whether the kernels are
//     enabled, so benchmark records always describe the hardware.
//   - archSIMD() — the micro-kernel families the probe unlocked, as
//     registry entries. A family plugs into the same packedMul driver
//     as the pure-Go kernels, so it inherits the packed-panel format,
//     the contiguous-tile fast path, and the padded-block handling of
//     the m%MR / n%NR edges.
//
// Other GOARCHes, and any build with `-tags noasm`, compile the stub
// hooks in simd_noasm.go instead: no features, no kernels, pure Go
// everywhere. Setting RECMAT_NOSIMD (to any non-empty value) is the
// runtime equivalent: the assembly kernels are left out of the
// registry, so both selection paths — explicit KernelName and the
// default, Auto — resolve to pure Go.

// simdImpl is one architecture-specific kernel implementation surfaced
// by archSIMD: the registry name, the micro-kernel family, and the CPU
// features it requires (informational, shown in docs and benches), and
// its Impl.Balance. archSIMD lists the families narrowest first.
type simdImpl struct {
	name     string
	mk       *microImpl
	features string
	balance  float64
}

// simdNames lists the assembly kernels registered on this host, sorted.
// Empty when the CPU lacks the features, under `-tags noasm`, on other
// GOARCHes, or with RECMAT_NOSIMD set.
var simdNames []string

// wide is the default kernel of a tile that holds a full micro-block:
// the widest assembly family registered ("avx512" over "avx2"; "neon"),
// the pure-Go "packed8x4" when there is none.
var wide = kernels["packed8x4"]

func init() {
	if os.Getenv("RECMAT_NOSIMD") != "" {
		return
	}
	for _, si := range archSIMD() {
		kern, skern := kernelPair(si.mk)
		wide = Impl{Name: si.name, Kern: kern, Scratch: skern, Balance: si.balance}
		kernels[si.name] = wide
		simdNames = append(simdNames, si.name)
	}
	sort.Strings(simdNames)
}

// Auto returns the default implementation for an m×n×k leaf shape: a
// function of the tile shape and of what the CPU probe registered, and
// of nothing else — no clock, no memo — so the same request runs the
// same kernel in every call, process and restart on a host. The paper
// ran one fixed leaf kernel; this is one fixed kernel per host and
// shape class. A tile that holds a full MicroM×MicroN block takes the
// widest register-blocked family; a smaller one would be all fringe —
// one block padded out from under a block's worth of rows or columns —
// and takes "blocked".
// `make bench-kernel` times the rule's picks against every other kernel.
func Auto(m, n, k int) Impl {
	if m >= MicroM && n >= MicroN {
		return wide
	}
	return kernels["blocked"]
}

// Calibrate returns the name of the default kernel for an m×n×k leaf.
// It measures nothing; the name is the one the repository benchmark's
// probe calls.
func Calibrate(m, n, k int) string { return Auto(m, n, k).Name }

// ResetCalibration does nothing: no selection in this package is
// measured or remembered. The name is the one the repository benchmark's
// probe calls.
func ResetCalibration() {}

// FastCutoff returns the grid side, in tiles, at or below which a fast
// algorithm on impl's m×n×k tiles hands over to the standard recursion.
// One level of a Strassen-like recursion trades an eighth half-size
// product for n3 three-operand passes, n2 two-operand passes and zero
// zero-fills over the quadrants. The paper's scalar leaf made that trade
// a win down to single tiles; a SIMD leaf multiplies a tile faster than
// the passes stream it, so the lower levels lose. On quadrants h tiles a
// side the product saved is h tiles' flops per tile of quadrant and the
// passes are the same bytes per tile at every h, so the level repays
// them when
//
//	h · tileFlops ≥ Balance · passBytes
//
// and the cutoff is the smallest power-of-two h that does. Balance is
// the flops the family's leaf retires in the time the scalar passes
// stream one byte, times the margin a level must win by inside a call,
// where every worker streams at once and the products then read cold
// temporaries (EXPERIMENTS.md, "The fast-algorithm crossover", has the
// sweeps each constant is read off). Like Auto it is a function of its
// arguments and nothing else — no clock, no memo — so every process
// plans a shape the same way.
func FastCutoff(impl Impl, m, n, k, n3, n2, zero int) int {
	tileFlops := 2 * float64(m) * float64(n) * float64(k)
	elems := float64(m*k+k*n+m*n) / 3 // of a tile, over the three operands
	passBytes := 8 * elems * float64(3*n3+2*n2+zero)
	h := 1
	for h < 1<<30 && float64(h)*tileFlops < impl.Balance*passBytes {
		h *= 2
	}
	return h
}

// Features reports the SIMD capabilities detected on the host CPU, in
// sorted order. It describes the hardware, not the configuration: the
// list is unaffected by RECMAT_NOSIMD (use SIMDNames to see what is
// actually runnable). Empty on GOARCHes without a probe and under
// `-tags noasm` (the probe itself needs assembly).
func Features() []string {
	fs := append([]string(nil), archFeatures()...)
	sort.Strings(fs)
	return fs
}

// SIMDNames returns the names of the assembly kernels registered on
// this host, in sorted order — the subset of Names() that dispatches to
// hardware micro-kernels. Empty when none are available or when
// RECMAT_NOSIMD disabled them.
func SIMDNames() []string {
	return append([]string(nil), simdNames...)
}
