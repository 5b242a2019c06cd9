package main

import (
	"fmt"
	"time"

	"inferray/cmd/benchtables/internal/standin"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// namedDataset couples a dataset label with its triples.
type namedDataset struct {
	name    string
	triples []rdf.Triple
}

// bsbmDatasets builds the synthetic block of Tables 2 (BSBM sizes).
func bsbmDatasets(cfg scaleCfg) []namedDataset {
	out := make([]namedDataset, 0, len(cfg.bsbmSizes))
	for _, n := range cfg.bsbmSizes {
		out = append(out, namedDataset{"BSBM " + kfmt(n), datagen.BSBM(n, 11)})
	}
	return out
}

// taxonomyDatasets builds the real-world-like block (Wikipedia, Yago,
// Wordnet stand-ins; see DESIGN.md §3).
func taxonomyDatasets(cfg scaleCfg) []namedDataset {
	return []namedDataset{
		{"Wikipedia*", datagen.WikipediaLike(cfg.taxScale).Generate()},
		{"Yago*", datagen.YagoLike(cfg.taxScale).Generate()},
		{"Wordnet*", datagen.WordnetLike(cfg.taxScale).Generate()},
	}
}

// Row layouts of Tables 2–3 and of Table 4, shared by header and rows.
const (
	benchRowFmt = "%-14s %-13s %8s %8s %10s %10s %10s   %9s %9s   %15s %16s\n"
	chainRowFmt = "%-8s %8s %8s %10s %8s %10s %10s   %9s   %15s %16s\n"
)

// benchRow measures the engines on one dataset × fragment and prints a
// table row. The graph engine is skipped beyond its cap (shown as "-",
// the paper's timeout marker), likewise for hash-join. webpie enables
// the MapReduce column (Table 2 only, RDFS fragments — matching the
// paper, where WebPIE supports neither ρdf nor RDFS-Plus and is marked
// N/A).
func benchRow(cfg scaleCfg, name string, triples []rdf.Triple, fragment rules.Fragment, webpie bool) {
	paper, shipped := runBothInferray(triples, fragment)

	facts, v := encodeFacts(triples, fragment)
	specs := rules.Specs(fragment, v)

	var hashTime, graphTime, webpieTime time.Duration
	hashSkip := len(facts) > cfg.hashCap
	if !hashSkip {
		hashTime, _ = runHashJoin(facts, specs)
	}
	graphSkip := len(facts) > cfg.graphCap
	if !graphSkip {
		graphTime, _ = runGraph(facts, specs)
	}
	webpieSkip := !webpie || fragment == rules.RhoDF || len(facts) > cfg.hashCap
	if !webpieSkip {
		wp := standin.NewWebPIEEngine(v, fragment == rules.RDFSFull, standin.JobConfig{})
		for _, f := range facts {
			wp.Add(f)
		}
		start := time.Now()
		wp.Materialize()
		webpieTime = time.Since(start)
	}

	fmt.Printf(benchRowFmt,
		name, fragment,
		ms(paper.time, false), ms(shipped.time, false),
		ms(hashTime, hashSkip), ms(graphTime, graphSkip), ms(webpieTime, webpieSkip),
		kfmt(paper.stats.InputTriples), kfmt(paper.stats.InferredTriples),
		matVirt(paper.stats), matVirt(shipped.stats))
}

// benchHeader prints the column heads of Tables 2 and 3. Inferray gets
// two columns: "paper" (the encoding off, Algorithm 1 as published) and
// "shipped" (the encoding on); the trailing pair gives each one's
// materialized/virtual triples.
func benchHeader(title string) {
	fmt.Println(title)
	fmt.Printf(benchRowFmt,
		"Dataset", "Fragment", "paper", "shipped", "HashJoin", "Graph", "WebPIE", "input", "inferred",
		"paper mat/virt", "shipped mat/virt")
	fmt.Printf("%-14s %-13s %8s %8s %10s %10s %10s\n",
		"", "", "(ms)", "(ms)", "(RDFox-like)", "(OWLIM-like)", "(MapReduce)")
}

// table2 reproduces Table 2: the RDFS flavors (ρdf, RDFS-default,
// RDFS-full) over BSBM and the real-world-like taxonomies.
func table2(cfg scaleCfg) {
	benchHeader("== Table 2: RDFS flavors, execution time (ms) ==")
	fragments := []rules.Fragment{rules.RhoDF, rules.RDFSDefault, rules.RDFSFull}
	for _, ds := range bsbmDatasets(cfg) {
		for _, f := range fragments {
			benchRow(cfg, ds.name, ds.triples, f, true)
		}
	}
	for _, ds := range taxonomyDatasets(cfg) {
		for _, f := range fragments {
			benchRow(cfg, ds.name, ds.triples, f, true)
		}
	}
	fmt.Println()
}

// table3 reproduces Table 3: RDFS-Plus over LUBM and the taxonomies.
func table3(cfg scaleCfg) {
	benchHeader("== Table 3: RDFS-Plus, execution time (ms) ==")
	for _, n := range cfg.lubmSizes {
		benchRow(cfg, "LUBM "+kfmt(n), datagen.LUBM(n, 13), rules.RDFSPlus, false)
	}
	for _, ds := range taxonomyDatasets(cfg) {
		benchRow(cfg, ds.name, ds.triples, rules.RDFSPlus, false)
	}
	fmt.Println()
}

// table4 reproduces Table 4: transitive closure over subClassOf chains.
// The paper column runs Inferray's dedicated Nuutila stage (θ) and is
// the one the paper's linearity claim is judged on; closure and
// normalize split its time like inferray -stats does: the θ stage, and
// the sort + dedup of the loaded tables before it. The
// shipped column keeps the chain's closure virtual. The hash-join
// engine runs semi-naive SCM-SCO; the graph engine runs the naive
// fixpoint whose duplicate explosion motivates §4.1.
func table4(cfg scaleCfg) {
	fmt.Println("== Table 4: transitive closure of subClassOf chains, time (ms) ==")
	fmt.Printf(chainRowFmt,
		"Chain", "paper", "closure", "normalize", "shipped", "HashJoin", "Graph", "inferred",
		"paper mat/virt", "shipped mat/virt")
	for _, n := range cfg.chainLens {
		triples := datagen.Chain(n)
		paper, shipped := runBothInferray(triples, rules.RDFSDefault)

		facts, v := encodeFacts(triples, rules.RhoDF)
		specs := rules.Specs(rules.RhoDF, v)
		var hashTime, graphTime time.Duration
		hashSkip := n > cfg.chainHashCap
		if !hashSkip {
			hashTime, _ = runHashJoin(facts, specs)
		}
		graphSkip := n > cfg.chainGraphCap
		if !graphSkip {
			graphTime, _ = runGraph(facts, specs)
		}
		fmt.Printf(chainRowFmt,
			fmt.Sprint(n), ms(paper.time, false),
			ms(paper.stats.ClosureTime, false), ms(paper.stats.NormalizeTime, false),
			ms(shipped.time, false), ms(hashTime, hashSkip), ms(graphTime, graphSkip),
			kfmt(paper.stats.InferredTriples), matVirt(paper.stats), matVirt(shipped.stats))
	}
	fmt.Println()
}
