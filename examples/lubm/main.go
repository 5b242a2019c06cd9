// LUBM end-to-end: generate a LUBM-like university dataset (the Table 3
// workload), materialize it under RDFS-Plus, and answer the kind of
// questions forward-chaining makes trivial: transitive organizational
// containment (PRP-TRP), property hierarchies (PRP-SPO1), inverse
// properties (PRP-INV), and class hierarchy membership (CAX-SCO).
//
// Run with: go run ./examples/lubm [-size 20000]
package main

import (
	"flag"
	"fmt"
	"log"

	"inferray"
	"inferray/internal/datagen"
)

func main() {
	size := flag.Int("size", 20000, "approximate dataset size in triples")
	flag.Parse()

	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	if err := r.AddTriples(datagen.LUBM(*size, 42)); err != nil {
		log.Fatal(err)
	}
	stats, err := r.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LUBM-like: input=%d inferred=%d total=%d iterations=%d in %s\n\n",
		stats.InputTriples, stats.InferredTriples, stats.TotalTriples,
		stats.Iterations, stats.TotalTime)

	// Count derived memberships: every worksFor/headOf fact lifts to
	// memberOf through the subPropertyOf chain.
	memberOf, worksFor, headOf := 0, 0, 0
	gradStudents, persons := 0, 0
	subOrg := 0
	r.Triples(func(t inferray.Triple) bool {
		switch t.P {
		case "<http://example.org/lubm/memberOf>":
			memberOf++
		case "<http://example.org/lubm/worksFor>":
			worksFor++
		case "<http://example.org/lubm/headOf>":
			headOf++
		case "<http://example.org/lubm/subOrganizationOf>":
			subOrg++
		case inferray.Type:
			switch t.O {
			case "<http://example.org/lubm/GraduateStudent>":
				gradStudents++
			case "<http://example.org/lubm/Person>":
				persons++
			}
		}
		return true
	})

	fmt.Printf("memberOf facts:            %d (≥ worksFor %d ≥ headOf %d — PRP-SPO1)\n",
		memberOf, worksFor, headOf)
	fmt.Printf("subOrganizationOf facts:   %d (transitively closed — PRP-TRP)\n", subOrg)
	fmt.Printf("GraduateStudent instances: %d\n", gradStudents)
	fmt.Printf("Person instances:          %d (lifted via CAX-SCO + equivalentClass)\n", persons)

	if memberOf < worksFor || worksFor < headOf {
		log.Fatal("property-hierarchy lifting failed")
	}
	if persons < gradStudents {
		log.Fatal("class-hierarchy lifting failed")
	}

	// Spot-check transitivity: a research group is (transitively) part
	// of its university.
	grp := "<http://example.org/lubm/Univ0/Dept0/Group0>"
	uni := "<http://example.org/lubm/Univ0>"
	holds := r.Holds(grp, "<http://example.org/lubm/subOrganizationOf>", uni)
	fmt.Printf("\nGroup0 ⊑org Univ0 (two hops): %v\n", holds)
	if !holds {
		log.Fatal("transitive subOrganizationOf missing")
	}

	// The LUBM benchmark's signature query shape, over the materialized
	// closure: members of any organization transitively inside Univ0.
	n, err := r.QueryCount(
		[3]string{"?who", "<http://example.org/lubm/memberOf>", "?org"},
		[3]string{"?org", "<http://example.org/lubm/subOrganizationOf>", uni},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("members of organizations within Univ0: %d\n", n)
	if n == 0 {
		log.Fatal("query over the closure returned nothing")
	}
}
