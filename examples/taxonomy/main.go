// Taxonomy closure: the Table 4 scenario as an application. A deep
// subClassOf chain (a degenerate taxonomy — think biological ranks) is
// closed with Inferray's dedicated Nuutila stage and, for contrast,
// with the naive iterative strategy whose duplicate explosion the paper
// quantifies (§4.1). Run with:
//
//	go run ./examples/taxonomy [-depth 2000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"inferray"
	"inferray/internal/baseline"
	"inferray/internal/datagen"
)

func main() {
	depth := flag.Int("depth", 2000, "taxonomy depth (chain length)")
	flag.Parse()

	triples := datagen.Chain(*depth)

	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	if err := r.AddTriples(triples); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	stats, err := r.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Inferray (Nuutila): depth=%d inferred=%d in %s (%.1fM triples/s)\n",
		*depth, stats.InferredTriples, time.Since(start),
		float64(stats.InferredTriples)/stats.TotalTime.Seconds()/1e6)

	// The top of the taxonomy is now an ancestor of the bottom.
	bottom := fmt.Sprintf("<http://example.org/chain/C%d>", 0)
	top := fmt.Sprintf("<http://example.org/chain/C%d>", *depth)
	fmt.Printf("bottom ⊑* top: %v\n", r.Holds(bottom, inferray.SubClassOf, top))

	// Contrast: the naive iterative closure generates duplicate
	// candidates before eliminating them.
	pairs := make([]uint64, 0, 2**depth)
	for i := 0; i < *depth; i++ {
		pairs = append(pairs, uint64(i+1), uint64(i+2))
	}
	start = time.Now()
	closed, generated := baseline.NaiveTransitiveClosure(pairs)
	inferred := len(closed)/2 - *depth
	fmt.Printf("Naive iterative:    inferred=%d in %s, generated %d candidates (%.1f%% waste)\n",
		inferred, time.Since(start), generated,
		100*float64(generated-inferred)/float64(generated))
}
