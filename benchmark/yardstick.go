package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host-speed yardstick. On a shared virtual machine the same code
// runs up to 2.5 times as fast from one minute to the next, and the fast
// and the slow stretches last from a third of a second to many minutes,
// with the hypervisor reporting almost no steal: whatever shares the
// cores slows every instruction. A fixed scalar FMA loop that owes
// nothing to the repository's code is therefore sampled between ops
// through the whole window. The ops between two samples form a block,
// and a block's times are reported at the reference host speed — a
// measured time × the block's speed factor, a rate ÷ it — so that two
// runs of one commit read alike and a change is not judged by the
// neighbours' load.

const (
	// yardRef is the reference host: yardstick GFLOP/s per CPU.
	yardRef = 2.0
	// yardEvery is the op time after which a block ends and the next
	// sample of sizes.yardSample (6 ms) is taken: shorter than the host's
	// shortest stretches, and an op of 20 ms or more is a block of its
	// own. Sampling adds up to a quarter to a run's wall time.
	yardEvery = 20 * time.Millisecond
)

// yardExp is how much of the yardstick's swing a workload's ops follow:
// its times move as yardstick^-yardExp. The yardstick saturates the FMA
// ports, so a busy sibling hyperthread halves it. The blocked multiplies
// are partly memory-bound and lose less; stream-percall loses all of it,
// its two workers stealing some 1.5k times per op and one spinning while
// the other is held up. Each exponent is the one that left the smallest
// spread between 16 to 24 runs of its workload taken while the host's
// speed moved by a factor of 1.3 to 2.1 (README.md, "Host speed"); a
// tenth either way costs little.
var yardExp = map[string]float64{
	"dense-square":     0.8,
	"fast-auto":        0.7,
	"stream-percall":   1.0,
	"stream-prepacked": 0.7,
	"batch-small":      0.6,
	"serve-stream":     0.8,
}

// speedOf is the host-speed factor of a block of the workload's ops: the
// yardstick read y0 before the block and y1 after it.
func speedOf(workload string, y0, y1 float64) float64 {
	return math.Pow((y0+y1)/2/yardRef, yardExp[workload])
}

// hostSpeed is the factor of a whole window from all its samples (1 with
// no samples).
func hostSpeed(workload string, yard []float64) float64 {
	if len(yard) == 0 {
		return 1
	}
	return math.Pow(mean(yard)/yardRef, yardExp[workload])
}

// yardstick runs eight independent math.FMA chains on every CPU for d
// and returns the mean GFLOP/s per CPU.
func yardstick(d time.Duration) float64 {
	n := runtime.NumCPU()
	rates := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7
			x, y := 0.999999, 1e-9
			iters := 0
			t0 := time.Now()
			for time.Since(t0) < d {
				for i := 0; i < 4096; i++ {
					a0 = math.FMA(a0, x, y)
					a1 = math.FMA(a1, x, y)
					a2 = math.FMA(a2, x, y)
					a3 = math.FMA(a3, x, y)
					a4 = math.FMA(a4, x, y)
					a5 = math.FMA(a5, x, y)
					a6 = math.FMA(a6, x, y)
					a7 = math.FMA(a7, x, y)
				}
				iters += 4096
			}
			rates[g] = 2 * 8 * float64(iters) / time.Since(t0).Seconds() / 1e9
			if math.IsNaN(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7) { // keeps the chains live
				rates[g] = 0
			}
		}()
	}
	wg.Wait()
	return mean(rates)
}
