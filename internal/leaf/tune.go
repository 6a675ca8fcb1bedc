package leaf

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"
)

// The runtime autotuner. The paper ran a single fixed leaf kernel (the
// four-way-unrolled C routine); which kernel is fastest here depends on
// the host CPU and the leaf shape, so the driver instead benchmarks the
// candidate kernels once per leaf shape at first use and remembers the
// winner. The measurement multiplies contiguous tiles — the case the
// recursive layouts produce — so the selection favors the configuration
// the layouts are designed to create.

// candidates are the kernels the autotuner measures, cheapest-to-probe
// subset of the registry: Naive is excluded (never competitive, and
// probing it at large tiles is pure waste). The assembly kernels the
// CPU supports are appended at init (simd.go), so the autotuner always
// races pure Go against whatever the hardware offers.
var candidates = []string{"unrolled4", "axpy", "blocked", "packed4x4", "packed8x4"}

// calReps is the number of timed repetitions per candidate; the minimum
// is kept, which rejects scheduler noise.
const calReps = 3

// calCap bounds the probed dimensions so that calibration stays in the
// millisecond range even when a caller forces degenerate whole-matrix
// tiles; relative kernel speed is stable above the cap.
const calCap = 128

type tuneKey struct{ m, n, k int }

var (
	tuneMu    sync.Mutex
	tuneCache = map[tuneKey]string{}
	rateCache = map[rateKey]Rates{}
)

// Calibrate benchmarks the candidate kernels on an m×n×k leaf
// multiplication over contiguous operands and returns the name of the
// fastest. Results are memoized per shape; the first call for a shape
// costs a few milliseconds, subsequent calls are a map lookup.
func Calibrate(m, n, k int) string {
	if m > calCap {
		m = calCap
	}
	if n > calCap {
		n = calCap
	}
	if k > calCap {
		k = calCap
	}
	if m < 1 {
		m = 1
	}
	if n < 1 {
		n = 1
	}
	if k < 1 {
		k = 1
	}
	key := tuneKey{m, n, k}
	tuneMu.Lock()
	defer tuneMu.Unlock()
	if name, ok := tuneCache[key]; ok {
		return name
	}
	name := measure(m, n, k)
	tuneCache[key] = name
	return name
}

// Auto returns the autotuned implementation for an m×n×k leaf shape.
func Auto(m, n, k int) Impl {
	impl, _ := GetImpl(Calibrate(m, n, k))
	return impl
}

// measure times each candidate and returns the winner's name. The
// repetitions run round-robin over the candidates, each keeping its
// minimum: a shared host's speed moves 2× within milliseconds, and a
// slow stretch that covered all of one candidate's repetitions would
// hand the process to a slower kernel. Every timed product follows an
// untimed one by the same kernel, because that is how a leaf runs —
// thousands of products back to back — and a 512-bit kernel's first
// product after other code runs at half speed while the core powers
// its upper lanes up. A candidate four times behind the leader after a
// round is out of the race: neighbours in a round are microseconds
// apart, where the host's speed does not move that far, and the slow
// kernels' products are what a calibration costs.
func measure(m, n, k int) string {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	type entry struct {
		impl Impl
		best time.Duration
	}
	const never = time.Duration(1<<63 - 1)
	var live []entry
	for _, name := range candidates {
		if impl, err := GetImpl(name); err == nil {
			live = append(live, entry{impl, never})
		}
	}
	for r := 0; r < calReps; r++ {
		lead := never
		for i := range live {
			e := &live[i]
			e.impl.Kern(m, n, k, a, m, b, k, c, m) // warm (the first also faults in scratch)
			t0 := time.Now()
			e.impl.Kern(m, n, k, a, m, b, k, c, m)
			e.best = min(e.best, time.Since(t0))
			lead = min(lead, e.best)
		}
		keep := live[:0]
		for _, e := range live {
			if e.best/4 <= lead {
				keep = append(keep, e)
			}
		}
		live = keep
	}
	win := live[0]
	for _, e := range live[1:] {
		if e.best < win.best {
			win = e
		}
	}
	return win.impl.Name
}

// ResetCalibration clears the memoized autotuner selections and
// fast-algorithm rates (tests).
func ResetCalibration() {
	tuneMu.Lock()
	tuneCache = map[tuneKey]string{}
	rateCache = map[rateKey]Rates{}
	tuneMu.Unlock()
}

// The fast-algorithm crossover. One level of a Strassen-like recursion
// trades an eighth half-size product for element-wise passes over the
// quadrants. The paper's scalar leaf made that trade a win down to
// single tiles; a SIMD leaf multiplies a tile faster than the passes
// stream it, so the lower levels lose. Where the trade turns is a
// property of the kernel, the tile shape and the host, and is resolved
// from two timings: the leaf product, and the passes at each level's
// quadrant size — small quadrants stream from cache, so a rate taken
// at memory speed would put the crossover several levels too high.

// Level is the element-wise work one level of a fast algorithm runs
// besides its seven products: the three kinds of pass and how many of
// each. The driver supplies its own, so the code priced is the code
// that runs.
type Level struct {
	Add3          func(dst, a, b []float64) // dst = a ± b
	Add2          func(dst, a []float64)    // dst ±= a
	Zero          func(dst []float64)
	N3, N2, NZero int
}

// Rates is what the crossover is resolved from, for one kernel on one
// tile shape.
type Rates struct {
	// Leaf is the time of one tile product, in nanoseconds.
	Leaf float64
	// Pass[i] is the time of one level's passes per tile of quadrant, in
	// nanoseconds, on quadrants 2^i tiles a side. Entries from N on
	// repeat entry N-1: no grid has needed them yet, or they lie past
	// passCap.
	Pass [8]float64
	N    int
}

// fastMargin is how many times over a level must repay its modelled
// passes. They are timed on one core with three quadrants to
// themselves; in a call every worker streams at once over a working set
// ten times that, and the products then read cold temporaries. Sweeps
// on AVX2 hosts (EXPERIMENTS.md) put the first level the bare model
// admits, and the one above it, between 20% behind Standard and 6%
// ahead, and the first clear win two levels up; and the measured ratio
// itself moves by ±30% from one process to the next. Auto promises
// never to be slower than Standard, so the margin sits where that whole
// spread lands on the clear win or above it.
const fastMargin = 5

// wins reports whether a fast level on quadrants 2^i tiles a side —
// seven products plus its passes — beats eight products.
func (r Rates) wins(i int) bool {
	return fastMargin*r.Pass[min(i, len(r.Pass)-1)] <= r.Leaf*float64(int(1)<<i)
}

// Cutoff returns the grid side, in tiles, at or below which a fast
// algorithm should hand over to the standard recursion: half the
// smallest power-of-two side at which a fast level wins.
func (r Rates) Cutoff() int {
	i := 0
	for i < 30 && !r.wins(i) {
		i++
	}
	return 1 << i
}

type rateKey struct {
	kern    uintptr
	m, n, k int
}

// passCap bounds the quadrants the passes are timed on, in elements;
// larger ones take the rate measured at the cap.
const passCap = 1 << 16

// FastRates times kern on m×n×k tiles and lv's passes far enough up to
// decide every level of a grid side tiles a side, and no further: a
// process that multiplies small matrices never streams large
// quadrants. The rates are memoized per kernel and tile shape and
// extended when a larger grid asks.
//
// Only the ratio of the two timings decides, and a shared host's speed
// moves by half within milliseconds, taking both with it. So every
// level times the leaf and its passes back to back, rateReps times,
// and keeps the median ratio — which cold processes agree on where
// best-of timings taken apart do not — scaled to the leaf time on
// record.
func FastRates(kern Kernel, m, n, k int, lv Level, side int) Rates {
	key := rateKey{reflect.ValueOf(kern).Pointer(), m, n, k}
	tuneMu.Lock()
	defer tuneMu.Unlock()
	r := rateCache[key]
	elems := max((m*k+k*n+m*n)/3, 1) // of a tile, over the three operands
	quad := func(i int) int { return min(elems<<(2*i), passCap) }
	var leaf func() float64
	var buf []float64
	for i := r.N; i < len(r.Pass) && 2<<i <= side && (i == 0 || !r.wins(i-1)); i++ {
		if leaf == nil {
			leaf = leafTimer(kern, m, n, k)
			top := i
			for top+1 < len(r.Pass) && 4<<top <= side {
				top++
			}
			buf = make([]float64, 3*quad(top))
		}
		q := quad(i)
		l, ratio := timeLevel(leaf, lv, buf[:q], buf[q:2*q], buf[2*q:3*q])
		if r.Leaf == 0 {
			r.Leaf = l
		}
		r.Pass[i] = ratio * r.Leaf * float64(elems) / float64(q)
		if r.N = i + 1; q == passCap {
			r.N = len(r.Pass)
		}
		for j := i + 1; j < len(r.Pass); j++ {
			r.Pass[j] = r.Pass[i]
		}
	}
	if leaf != nil {
		rateCache[key] = r
	}
	return r
}

// rateReps is the number of timed repetitions behind each rate.
const rateReps = 7

// leafTimer returns a function timing one m×n×k tile product on
// contiguous operands, in nanoseconds. Shapes past calCap are timed at
// the cap and scaled by volume, as Calibrate caps them; small tiles are
// timed several products at a time, above the clock's resolution.
func leafTimer(kern Kernel, m, n, k int) func() float64 {
	cm, cn, ck := min(m, calCap), min(n, calCap), min(k, calCap)
	a, b, c := make([]float64, cm*ck), make([]float64, ck*cn), make([]float64, cm*cn)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 1
	}
	vol := max(cm*cn*ck, 1)
	calls := max(1, 1<<17/vol)
	scale := float64(m) * float64(n) * float64(k) / float64(vol) / float64(calls)
	return func() float64 {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			kern(cm, cn, ck, a, cm, b, ck, c, cm)
		}
		return float64(time.Since(t0).Nanoseconds()) * scale
	}
}

// timeLevel returns the median leaf time and the median ratio of one
// level's passes over the three quadrants to it. The quadrants lie back
// to back, as a curve layout and the arena place them.
func timeLevel(leaf func() float64, lv Level, dst, a, b []float64) (float64, float64) {
	since := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0).Nanoseconds())
	}
	var leaves, ratios [rateReps + 1]float64
	for j := range leaves { // the first round faults the operands in
		leaves[j] = leaf()
		ratios[j] = (float64(lv.N3)*since(func() { lv.Add3(dst, a, b) }) +
			float64(lv.N2)*since(func() { lv.Add2(dst, a) }) +
			float64(lv.NZero)*since(func() { lv.Zero(dst) })) / leaves[j]
	}
	sort.Float64s(leaves[1:])
	sort.Float64s(ratios[1:])
	return leaves[1+rateReps/2], ratios[1+rateReps/2]
}
