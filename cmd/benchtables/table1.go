package main

import (
	"fmt"
	"math/rand"
	"time"

	"inferray/cmd/benchtables/internal/standin"
	"inferray/internal/dictionary"
	"inferray/internal/sorting"
)

// sortRow is one row of Table 1: its label and the sort it times.
type sortRow struct {
	label string
	sort  func(pairs []uint64)
}

// The paper's sorts, whose throughput depends on the value range, and
// the generic baselines, which are timed once over a 2⁴⁰ range.
var (
	paperSorts = []sortRow{
		{"Counting", func(p []uint64) { sorting.CountingSortPairs(p, false) }},
		{"MSDA Radix", func(p []uint64) { sorting.RadixSortPairsMSDA(p, false) }},
	}
	genericSorts = []sortRow{
		{"Radix128", standin.LSDRadixPairs},
		{"Mergesort", standin.MergesortPairs},
		{"Quicksort", standin.QuicksortPairs},
	}
)

// table1 reproduces Table 1: sorting throughput (million pairs/second)
// of the counting sort and MSDA radix across (range × size) cells, plus
// the generic baselines. Values are generated around the dense-numbering
// base (2³²) like real property tables.
func table1(cfg scaleCfg) {
	fmt.Println("== Table 1: pair-sorting throughput (million pairs/second) ==")
	fmt.Printf("%-12s %-12s", "Range", "Algorithm")
	for _, n := range cfg.sortSizes {
		fmt.Printf(" %10s", kfmt(n))
	}
	fmt.Println()

	for _, rng := range cfg.sortRanges {
		for _, row := range paperSorts {
			fmt.Printf("%-12s %-12s", kfmt(rng), row.label)
			for _, n := range cfg.sortSizes {
				fmt.Printf(" %10.1f", throughput(row.sort, n, rng))
			}
			fmt.Println()
		}
	}
	fmt.Println("Generic (range-independent):")
	for _, row := range genericSorts {
		fmt.Printf("%-12s %-12s", "-", row.label)
		for _, n := range cfg.sortSizes {
			fmt.Printf(" %10.1f", throughput(row.sort, n, 1<<40))
		}
		fmt.Println()
	}
	fmt.Println()
}

// throughput sorts three freshly generated lists and returns Mpairs/s
// of the fastest run (best of three).
func throughput(sortFn func([]uint64), n, valueRange int) float64 {
	var best time.Duration
	for run := 0; run < 3; run++ {
		pairs := genTablePairs(n, valueRange, int64(run))
		start := time.Now()
		sortFn(pairs)
		d := time.Since(start)
		if run == 0 || d < best {
			best = d
		}
	}
	return float64(n) / best.Seconds() / 1e6
}

// genTablePairs mimics a property table under dense numbering: values
// uniform in a window of the given range starting at the resource base.
func genTablePairs(n, valueRange int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(77 + seed))
	base := dictionary.PropBase + 1
	pairs := make([]uint64, 2*n)
	for i := range pairs {
		pairs[i] = base + uint64(rng.Intn(valueRange))
	}
	return pairs
}
