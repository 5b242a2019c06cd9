package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
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

// run is one engine's Materialize as measured: its wall time, the minor
// page faults the process took meanwhile (getrusage), and the bytes the
// Go heap allocated (MemStats.TotalAlloc). The zero run is an engine a
// Table's cap skipped.
type run struct {
	ran    bool
	time   time.Duration
	faults int64
	bytes  uint64
}

// measure runs materialize from returned memory: debug.FreeOSMemory
// runs a full runtime.GC and hands the free pages back to the OS first,
// so no engine inherits pages another one faulted in. getrusage of the
// calling process fails only on a bad pointer, so its error is dropped.
func measure(materialize func()) run {
	debug.FreeOSMemory()
	var mem0, mem1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&mem0)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	start := time.Now()
	materialize()
	elapsed := time.Since(start)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&mem1)
	return run{
		ran:    true,
		time:   elapsed,
		faults: int64(ru1.Minflt - ru0.Minflt),
		bytes:  mem1.TotalAlloc - mem0.TotalAlloc,
	}
}

// runInferray measures one full Inferray materialization (load excluded,
// matching the paper's methodology of reporting inference time) with
// parallel rules. encoding picks the configuration: off is Algorithm 1
// as published, whose θ stage computes every subClassOf/subPropertyOf
// closure pair (the "paper" column); on is what the library ships, the
// hierarchy interval encoding answering those pairs and the rdf:type
// triples they entail without storing them (the "shipped" column).
func runInferray(triples []rdf.Triple, fragment rules.Fragment, encoding bool) (run, reasoner.Stats) {
	e := reasoner.New(reasoner.Options{Fragment: fragment, Parallel: true, HierarchyEncoding: encoding})
	e.LoadTriples(triples)
	var stats reasoner.Stats
	r := measure(func() { stats = e.Materialize() })
	return r, stats
}

// inferrayRun is one configuration's measurement.
type inferrayRun struct {
	run
	stats reasoner.Stats
}

// runBothInferray measures the paper and the shipped configuration on
// one dataset. Both must infer the same closure; the program stops if
// they do not, since a table of unequal closures compares nothing.
func runBothInferray(triples []rdf.Triple, fragment rules.Fragment) (paper, shipped inferrayRun) {
	paper.run, paper.stats = runInferray(triples, fragment, false)
	shipped.run, shipped.stats = runInferray(triples, fragment, true)
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
func runHashJoin(facts []baseline.Fact, specs []rules.Spec) (run, int) {
	e := baseline.NewHashJoinEngine(specs)
	for _, f := range facts {
		e.Add(f)
	}
	var derived int
	r := measure(func() { derived, _ = e.Materialize() })
	return r, derived
}

// runGraph measures the Sesame/OWLIM-like baseline on pre-encoded facts.
func runGraph(facts []baseline.Fact, specs []rules.Spec) (run, int) {
	e := standin.NewGraphEngine(specs)
	for _, f := range facts {
		e.Add(f)
	}
	var derived int
	r := measure(func() { derived, _ = e.Materialize() })
	return r, derived
}

// runWebPIE measures the MapReduce baseline on pre-encoded facts; full
// selects RDFS-full over RDFS-default.
func runWebPIE(facts []baseline.Fact, v *rules.Vocab, full bool) (run, int) {
	e := standin.NewWebPIEEngine(v, full, standin.JobConfig{})
	for _, f := range facts {
		e.Add(f)
	}
	var derived int
	r := measure(func() { derived, _ = e.Materialize() })
	return r, derived
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
