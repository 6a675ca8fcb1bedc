//go:build noasm || (!amd64 && !arm64)

package leaf

// Pure-Go fallback: GOARCHes without assembly kernels, and any build
// with `-tags noasm`, register no hardware kernels and report no CPU
// features (the feature probe itself is assembly). Every selection
// path then resolves to the pure-Go kernels.

func archFeatures() []string { return nil }

func archSIMD() []simdImpl { return nil }

func prefetchCols(a []float64, rows, cols, lda int) {}
