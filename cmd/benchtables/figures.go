package main

import "fmt"

// figureRowFmt lays out Figures 7 and 8: one row per engine that ran in
// a cell.
const figureRowFmt = "%-14s %-10s %8s %12s %14s %14s\n"

// figure7 reproduces Figure 7 from Table 4's runs: memory behaviour per
// inferred triple on the transitive-closure benchmark.
func figure7(cells []cell) {
	printFigure("== Figure 7: page faults and allocated bytes per inferred triple (Table 4's runs) ==", "Chain", cells)
}

// figure8 reproduces Figure 8 from Table 3's runs: the same view of the
// RDFS-Plus benchmark.
func figure8(cells []cell) {
	printFigure("== Figure 8: page faults and allocated bytes per inferred triple (Table 3's runs) ==", "Dataset", cells)
}

// printFigure prints a second view of a Table's cells. The paper reads
// cache misses, dTLB misses and page faults from hardware counters;
// the one counter a process without a PMU can read is its own minor
// page faults, so each engine reports those and the bytes it allocated,
// both divided by the cell's inferred triples. An engine the Table
// skipped (its "-") has no row.
func printFigure(title, label string, cells []cell) {
	fmt.Println(title)
	fmt.Printf(figureRowFmt, label, "System", "ms", "faults", "faults/triple", "bytes/triple")
	for _, c := range cells {
		inferred := float64(max(c.paper.stats.InferredTriples, 1))
		for _, e := range []struct {
			name string
			r    run
		}{
			{"paper", c.paper.run},
			{"shipped", c.shipped.run},
			{"hash-join", c.hash},
			{"graph", c.graph},
			{"webpie", c.webpie},
		} {
			if !e.r.ran {
				continue
			}
			fmt.Printf(figureRowFmt, c.name, e.name, ms(e.r.time, false), fmt.Sprint(e.r.faults),
				fmt.Sprintf("%.4f", float64(e.r.faults)/inferred),
				fmt.Sprintf("%.1f", float64(e.r.bytes)/inferred))
		}
	}
	fmt.Println()
}

// chainShape checks the shape Table 4 and Figure 7 claim: in every
// chain cell where the hash-join engine ran, Inferray's paper column is
// no slower and takes no more page faults per inferred triple (one
// denominator, so the raw counts compare). It returns one line per
// violation.
func chainShape(cells []cell) []string {
	var bad []string
	for _, c := range cells {
		if !c.hash.ran {
			continue
		}
		if c.paper.time > c.hash.time {
			bad = append(bad, fmt.Sprintf("chain %s: paper %v slower than hash-join %v", c.name, c.paper.time, c.hash.time))
		}
		if c.paper.faults > c.hash.faults {
			bad = append(bad, fmt.Sprintf("chain %s: paper %d page faults, more than hash-join's %d", c.name, c.paper.faults, c.hash.faults))
		}
	}
	return bad
}
