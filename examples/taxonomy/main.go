// Taxonomy closure: the Table 4 scenario as an application. A deep
// subClassOf chain (a degenerate taxonomy — think biological ranks) is
// closed in two configurations. "paper" is Inferray as published: the
// hierarchy encoding is off, so the dedicated Nuutila stage (§4.1)
// computes and stores every subsumption. "shipped" is the library's
// default: the encoding is on, so the same subsumptions are answered by
// an interval index and stay virtual. Both must infer the same closure.
// Run with:
//
//	go run ./examples/taxonomy [-depth 2000]
package main

import (
	"flag"
	"fmt"
	"log"

	"inferray"
	"inferray/internal/datagen"
)

func main() {
	depth := flag.Int("depth", 2000, "taxonomy depth (chain length)")
	flag.Parse()

	triples := datagen.Chain(*depth)
	bottom := fmt.Sprintf("<http://example.org/chain/C%d>", 0)
	top := fmt.Sprintf("<http://example.org/chain/C%d>", *depth)

	configs := []struct {
		name     string
		encoding bool
	}{{"paper (encoding off)", false}, {"shipped (encoding on)", true}}
	inferred := make([]int, len(configs))
	for i, c := range configs {
		r := inferray.New(inferray.WithFragment(inferray.RDFSDefault), inferray.WithHierarchyEncoding(c.encoding))
		if err := r.AddTriples(triples); err != nil {
			log.Fatal(err)
		}
		stats, err := r.Materialize()
		if err != nil {
			log.Fatal(err)
		}
		inferred[i] = stats.InferredTriples
		fmt.Printf("%-21s depth=%d inferred=%d materialized=%d virtual=%d in %s (closure stage %s)\n",
			c.name, *depth, stats.InferredTriples, stats.MaterializedTriples, stats.VirtualTriples,
			stats.TotalTime, stats.ClosureTime)
		// The top of the taxonomy is now an ancestor of the bottom.
		if !r.Holds(bottom, inferray.SubClassOf, top) {
			log.Fatalf("%s: bottom ⊑* top does not hold", c.name)
		}
	}
	if inferred[0] != inferred[1] {
		log.Fatalf("paper inferred %d, shipped %d", inferred[0], inferred[1])
	}
	fmt.Println("bottom ⊑* top: true in both")
}
