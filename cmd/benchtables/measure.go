package main

import (
	"fmt"
	"os"
	"time"

	"inferray/cmd/benchtables/internal/standin"
	"inferray/internal/baseline"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
)

// encodeFacts encodes triples with a fresh engine dictionary (no
// materialization) and returns the facts plus the resolved vocabulary,
// so the baseline engines see exactly the IDs Inferray would.
func encodeFacts(triples []rdf.Triple, fragment rules.Fragment) ([]baseline.Fact, *rules.Vocab) {
	e := reasoner.New(reasoner.Options{Fragment: fragment})
	e.LoadTriples(triples)
	e.Main.Normalize()
	facts := make([]baseline.Fact, 0, e.Main.Size())
	e.Main.ForEach(func(pidx int, s, o uint64) bool {
		facts = append(facts, baseline.Fact{s, dictionary.PropID(pidx), o})
		return true
	})
	return facts, e.V
}

// runInferray measures one full Inferray materialization (load excluded,
// matching the paper's methodology of reporting inference time) with
// parallel rules. encoding picks the configuration: off is Algorithm 1
// as published, whose θ stage computes every subClassOf/subPropertyOf
// closure pair (the "paper" column); on is what the library ships, the
// hierarchy interval encoding answering those pairs and the rdf:type
// triples they entail without storing them (the "shipped" column).
func runInferray(triples []rdf.Triple, fragment rules.Fragment, encoding bool) (time.Duration, reasoner.Stats) {
	e := reasoner.New(reasoner.Options{Fragment: fragment, Parallel: true, HierarchyEncoding: encoding})
	e.LoadTriples(triples)
	start := time.Now()
	stats := e.Materialize()
	return time.Since(start), stats
}

// inferrayRun is one configuration's measurement.
type inferrayRun struct {
	time  time.Duration
	stats reasoner.Stats
}

// runBothInferray measures the paper and the shipped configuration on
// one dataset. Both must infer the same closure; the program stops if
// they do not, since a table of unequal closures compares nothing.
func runBothInferray(triples []rdf.Triple, fragment rules.Fragment) (paper, shipped inferrayRun) {
	paper.time, paper.stats = runInferray(triples, fragment, false)
	shipped.time, shipped.stats = runInferray(triples, fragment, true)
	if p, s := paper.stats.InferredTriples, shipped.stats.InferredTriples; p != s {
		fmt.Fprintf(os.Stderr, "benchtables: %s: paper inferred %d, shipped %d\n", fragment, p, s)
		os.Exit(1)
	}
	return paper, shipped
}

// matVirt renders a configuration's stored and virtual triple counts.
func matVirt(st reasoner.Stats) string {
	return kfmt(st.MaterializedTriples) + "/" + kfmt(st.VirtualTriples)
}

// runHashJoin measures the RDFox-like baseline on pre-encoded facts.
func runHashJoin(facts []baseline.Fact, specs []rules.Spec) (time.Duration, int) {
	e := baseline.NewHashJoinEngine(specs)
	for _, f := range facts {
		e.Add(f)
	}
	start := time.Now()
	derived, _ := e.Materialize()
	return time.Since(start), derived
}

// runGraph measures the Sesame/OWLIM-like baseline on pre-encoded facts.
func runGraph(facts []baseline.Fact, specs []rules.Spec) (time.Duration, int) {
	e := standin.NewGraphEngine(specs)
	for _, f := range facts {
		e.Add(f)
	}
	start := time.Now()
	derived, _ := e.Materialize()
	return time.Since(start), derived
}

// ms renders a duration as integer milliseconds, right-aligned, or "-"
// for the sentinel (skipped measurement, like the paper's timeouts).
func ms(d time.Duration, skipped bool) string {
	if skipped {
		return "-"
	}
	return fmt.Sprintf("%d", d.Milliseconds())
}

// kfmt renders large counts compactly (1.2M, 450K).
func kfmt(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}
