package main

import (
	"fmt"
	"math/rand"
	"slices"
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
// base (2³²) like real property tables. Each cell prints the median of
// tableRuns runs and, in parentheses, their min–max range.
func table1(cfg scaleCfg) {
	fmt.Println("== Table 1: pair-sorting throughput (million pairs/second) ==")
	fmt.Printf("%-12s %-12s", "Range", "Algorithm")
	for _, n := range cfg.sortSizes {
		fmt.Printf(" %18s", kfmt(n))
	}
	fmt.Println()

	for _, rng := range cfg.sortRanges {
		for _, row := range paperSorts {
			fmt.Printf("%-12s %-12s", kfmt(rng), row.label)
			for _, n := range cfg.sortSizes {
				fmt.Printf(" %18s", throughput(row.sort, n, rng))
			}
			fmt.Println()
		}
	}
	fmt.Println("Generic (range-independent):")
	for _, row := range genericSorts {
		fmt.Printf("%-12s %-12s", "-", row.label)
		for _, n := range cfg.sortSizes {
			fmt.Printf(" %18s", throughput(row.sort, n, 1<<40))
		}
		fmt.Println()
	}
	fmt.Println()
}

// tableRuns is how many freshly generated lists each Table 1 cell sorts:
// odd, so the median is one of the runs.
const tableRuns = 5

// rate is one Table 1 cell: the median and the extremes of its runs'
// throughputs, in million pairs/second.
type rate struct{ median, min, max float64 }

func (r rate) String() string {
	return fmt.Sprintf("%.1f (%.1f–%.1f)", r.median, r.min, r.max)
}

// throughput sorts tableRuns freshly generated lists and returns the
// spread of their Mpairs/s.
func throughput(sortFn func([]uint64), n, valueRange int) rate {
	mps := make([]float64, tableRuns)
	for run := range mps {
		pairs := genTablePairs(n, valueRange, int64(run))
		start := time.Now()
		sortFn(pairs)
		mps[run] = float64(n) / time.Since(start).Seconds() / 1e6
	}
	slices.Sort(mps)
	return rate{median: mps[tableRuns/2], min: mps[0], max: mps[tableRuns-1]}
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
