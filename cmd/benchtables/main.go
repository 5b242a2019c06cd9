// Command benchtables regenerates every table and figure of the paper's
// evaluation (§5.4 Table 1, §6.2 Table 2, §6.3 Table 3, §6.1 Table 4,
// §6.4 Figures 7 and 8) using the Go reimplementations of Inferray and
// its competitor architectures. Every engine's Materialize is measured
// once per cell: its time for the Tables, and for the Figures the minor
// page faults it takes and the bytes it allocates, per inferred triple.
// Absolute numbers differ from the paper (different language, hardware,
// and competitor stand-ins — see DESIGN.md §3); the shapes are what the
// reproduction checks. It exits 1 when Table 4's shape breaks: in a
// chain cell where both ran, Inferray's paper column is slower than the
// hash-join engine or takes more page faults.
//
// Usage:
//
//	benchtables -table 1            # sorting throughput matrix
//	benchtables -table 2            # RDFS flavors on BSBM + taxonomies
//	benchtables -table 3            # RDFS-Plus on LUBM + taxonomies
//	benchtables -table 4            # transitive closure on chains
//	benchtables -figure 7           # Table 4's runs: page faults, bytes
//	benchtables -figure 8           # Table 3's runs: page faults, bytes
//	benchtables -all -scale medium  # everything at a larger scale
package main

import (
	"flag"
	"fmt"
	"os"
)

// scaleCfg sizes the workloads. The paper runs at memory scales (up to
// 100M triples); "small" keeps every cell under a few seconds on a
// laptop, "paper" approaches the original sizes.
type scaleCfg struct {
	name          string
	sortSizes     []int
	sortRanges    []int
	bsbmSizes     []int
	lubmSizes     []int
	chainLens     []int
	taxScale      int
	graphCap      int // max facts fed to the naive graph engine
	hashCap       int // max facts fed to the hash-join engine
	chainGraphCap int
	chainHashCap  int
}

var scales = map[string]scaleCfg{
	"small": {
		name:          "small",
		sortSizes:     []int{50_000, 200_000, 1_000_000},
		sortRanges:    []int{50_000, 200_000, 1_000_000},
		bsbmSizes:     []int{5_000, 20_000, 50_000},
		lubmSizes:     []int{5_000, 20_000, 50_000, 100_000},
		chainLens:     []int{100, 250, 500, 1000, 2500},
		taxScale:      1,
		graphCap:      6_000,
		hashCap:       200_000,
		chainGraphCap: 250,
		chainHashCap:  500,
	},
	"medium": {
		name:          "medium",
		sortSizes:     []int{500_000, 1_000_000, 5_000_000},
		sortRanges:    []int{500_000, 1_000_000, 5_000_000},
		bsbmSizes:     []int{50_000, 200_000, 500_000},
		lubmSizes:     []int{50_000, 200_000, 500_000, 1_000_000},
		chainLens:     []int{100, 500, 1000, 2500, 5000},
		taxScale:      4,
		graphCap:      10_000,
		hashCap:       1_000_000,
		chainGraphCap: 500,
		chainHashCap:  1000,
	},
	"paper": {
		name:          "paper",
		sortSizes:     []int{500_000, 1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000},
		sortRanges:    []int{500_000, 1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000},
		bsbmSizes:     []int{1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000},
		lubmSizes:     []int{1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, 75_000_000, 100_000_000},
		chainLens:     []int{100, 500, 1000, 2500, 5000, 10000, 25000},
		taxScale:      20,
		graphCap:      20_000,
		hashCap:       10_000_000,
		chainGraphCap: 1000,
		chainHashCap:  2500,
	},
}

func main() {
	var (
		table  = flag.Int("table", 0, "table to regenerate (1-4)")
		figure = flag.Int("figure", 0, "figure to regenerate (7 or 8)")
		all    = flag.Bool("all", false, "regenerate everything")
		scale  = flag.String("scale", "small", "workload scale: small | medium | paper")
	)
	flag.Parse()

	cfg, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchtables: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	tab := func(n int) bool { return *all || *table == n }
	fig := func(n int) bool { return *all || *figure == n }
	if !tab(1) && !tab(2) && !tab(3) && !tab(4) && !fig(7) && !fig(8) {
		flag.Usage()
		os.Exit(2)
	}
	// A Table and its Figure are two views of the same runs: each cell
	// is measured once, whichever of the two is asked for.
	var plus, chains []cell
	if tab(1) {
		table1(cfg)
	}
	if tab(2) {
		table2(cfg)
	}
	if tab(3) || fig(8) {
		plus = rdfsPlusCells(cfg)
	}
	if tab(3) {
		table3(plus)
	}
	if tab(4) || fig(7) {
		chains = chainCells(cfg)
	}
	if tab(4) {
		table4(chains)
	}
	if fig(7) {
		figure7(chains)
	}
	if fig(8) {
		figure8(plus)
	}
	if bad := chainShape(chains); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "benchtables: "+b)
		}
		os.Exit(1)
	}
}
