package main

import (
	"fmt"
	"time"

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
// matching the paper's methodology of reporting inference time). It
// runs the production configuration — parallel rules and the hierarchy
// interval encoding — so the headline tables reflect what the library
// ships.
func runInferray(triples []rdf.Triple, fragment rules.Fragment) (time.Duration, reasoner.Stats) {
	e := reasoner.New(reasoner.Options{Fragment: fragment, Parallel: true, HierarchyEncoding: true})
	e.LoadTriples(triples)
	start := time.Now()
	stats := e.Materialize()
	return time.Since(start), stats
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
	e := baseline.NewGraphEngine(specs)
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
