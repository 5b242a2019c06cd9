// Off-line materialization: the workflow the paper's introduction gives
// as the main benefit of forward chaining — "off-line or pre-runtime
// execution of inference and consumer-independent data access: inferred
// data can be consumed as explicit data without integrating the
// inference engine with the runtime query engine" (§1).
//
// A LUBM-like dataset is materialized once, persisted as a compact
// binary snapshot, restored by a fresh "consumer" process, and queried
// there without re-running any inference.
//
// Run with: go run ./examples/offline [-size 20000]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"time"

	"inferray"
	"inferray/internal/datagen"
)

func main() {
	size := flag.Int("size", 20000, "approximate dataset size in triples")
	flag.Parse()

	// ---- Producer: infer once, persist.
	producer := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	if err := producer.AddTriples(datagen.LUBM(*size, 42)); err != nil {
		log.Fatal(err)
	}
	stats, err := producer.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	var image bytes.Buffer
	start := time.Now()
	if err := producer.SaveSnapshot(&image); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d triples (%d inferred) and snapshotted %d bytes in %s\n",
		stats.TotalTriples, stats.InferredTriples, image.Len(), time.Since(start))
	fmt.Printf("snapshot footprint: %.1f bytes/triple (raw pairs would be 16)\n\n",
		float64(image.Len())/float64(stats.TotalTriples))

	// ---- Consumer: restore and query, no inference engine involved.
	start = time.Now()
	consumer, err := inferray.LoadSnapshot(bytes.NewReader(image.Bytes()),
		inferray.WithFragment(inferray.RDFSPlus))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer restored %d triples in %s\n", consumer.Size(), time.Since(start))

	memberOf := "<http://example.org/lubm/memberOf>"
	subOrg := "<http://example.org/lubm/subOrganizationOf>"
	uni := "<http://example.org/lubm/Univ0>"

	start = time.Now()
	n, err := consumer.QueryCount(
		[3]string{"?who", memberOf, "?org"},
		[3]string{"?org", subOrg, uni},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 'members of organizations within Univ0': %d solutions in %s\n",
		n, time.Since(start))

	// The inferred data is served as explicit data: memberOf facts that
	// were never asserted (they came from worksFor ⊑ memberOf) answer
	// the query on the consumer side.
	if n == 0 {
		log.Fatal("closure did not survive the snapshot")
	}
}
