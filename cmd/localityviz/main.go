// localityviz prints the algorithmic locality-of-reference diagrams of
// Figure 1 of the paper: for each element of C = A·B, the elements of A
// and of B that the chosen algorithm reads to compute it, as dot grids.
//
// Usage:
//
//	localityviz [-alg standard|standard8|strassen|winograd|strassen-lowmem] [-n 8] [-stats]
//
// -alg takes any algorithm that is the in-place recursion or a ⟨2,2,2⟩
// coefficient table: the diagram is read off the table the engine runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	algName := flag.String("alg", "", "algorithm (default: all three)")
	n := flag.Int("n", 8, "matrix size (power of two, at most 8)")
	stats := flag.Bool("stats", false, "also print per-element read counts")
	flag.Parse()

	algs := []core.Alg{core.Standard, core.Strassen, core.Winograd}
	if *algName != "" {
		a, err := core.ParseAlg(*algName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if trace.Table(a) == nil {
			fmt.Fprintf(os.Stderr, "localityviz: %v has no 2x2x2 table to trace\n", a)
			os.Exit(2)
		}
		algs = []core.Alg{a}
	}
	for _, a := range algs {
		deps := trace.Reads(a, *n)
		fmt.Printf("=== %v ===\n", a)
		fmt.Print(trace.Render(deps, 'A'))
		fmt.Print(trace.Render(deps, 'B'))
		if *stats {
			printStats(deps, *n)
		}
	}
}

func printStats(deps [][]trace.Dep, n int) {
	fmt.Println("reads of A (rows) + B per element of C:")
	total, max := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := trace.Count(deps[i][j].A) + trace.Count(deps[i][j].B)
			fmt.Printf("%4d", c)
			total += c
			if c > max {
				max = c
			}
		}
		fmt.Println()
	}
	fmt.Printf("total reads: %d  max per element: %d  (standard algorithm: %d and %d)\n\n",
		total, max, 2*n*n*n, 2*n)
}
