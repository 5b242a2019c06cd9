package main

import (
	"fmt"

	"inferray/internal/baseline"
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

// cell is one row of Tables 2–4: every engine measured once on one
// dataset. Figures 7 and 8 print a second view of Table 4's and Table
// 3's cells, so each figure row is a run its Table timed.
type cell struct {
	name                string
	fragment            rules.Fragment
	paper, shipped      inferrayRun
	hash, graph, webpie run // zero where the Table's cap skips the engine
}

// measureBaselines runs the hash-join and graph engines on a cell's
// facts, each only while the input is within its cap (shown as "-",
// the paper's timeout marker, when it is not).
func (c *cell) measureBaselines(facts []baseline.Fact, specs []rules.Spec, hashCap, graphCap int) {
	if len(facts) <= hashCap {
		c.hash, _ = runHashJoin(facts, specs)
	}
	if len(facts) <= graphCap {
		c.graph, _ = runGraph(facts, specs)
	}
}

// benchCell measures the engines on one dataset × fragment of Tables
// 2–3. webpie enables the MapReduce column (Table 2 only, RDFS
// fragments — matching the paper, where WebPIE supports neither ρdf
// nor RDFS-Plus and is marked N/A); it shares the hash-join cap.
func benchCell(cfg scaleCfg, name string, triples []rdf.Triple, fragment rules.Fragment, webpie bool) cell {
	c := cell{name: name, fragment: fragment}
	c.paper, c.shipped = runBothInferray(triples, fragment)
	facts, v := encodeFacts(triples, fragment)
	c.measureBaselines(facts, rules.Specs(fragment, v), cfg.hashCap, cfg.graphCap)
	if webpie && fragment != rules.RhoDF && len(facts) <= cfg.hashCap {
		c.webpie, _ = runWebPIE(facts, v, fragment == rules.RDFSFull)
	}
	return c
}

// printBenchRow prints a cell as a row of Tables 2–3.
func printBenchRow(c cell) {
	fmt.Printf(benchRowFmt,
		c.name, c.fragment,
		ms(c.paper.time, false), ms(c.shipped.time, false),
		ms(c.hash.time, !c.hash.ran), ms(c.graph.time, !c.graph.ran), ms(c.webpie.time, !c.webpie.ran),
		kfmt(c.paper.stats.InputTriples), kfmt(c.paper.stats.InferredTriples),
		matVirt(c.paper.stats), matVirt(c.shipped.stats))
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
			printBenchRow(benchCell(cfg, ds.name, ds.triples, f, true))
		}
	}
	for _, ds := range taxonomyDatasets(cfg) {
		for _, f := range fragments {
			printBenchRow(benchCell(cfg, ds.name, ds.triples, f, true))
		}
	}
	fmt.Println()
}

// rdfsPlusCells measures Table 3's cells: RDFS-Plus over LUBM and the
// taxonomies.
func rdfsPlusCells(cfg scaleCfg) []cell {
	var cells []cell
	for _, n := range cfg.lubmSizes {
		cells = append(cells, benchCell(cfg, "LUBM "+kfmt(n), datagen.LUBM(n, 13), rules.RDFSPlus, false))
	}
	for _, ds := range taxonomyDatasets(cfg) {
		cells = append(cells, benchCell(cfg, ds.name, ds.triples, rules.RDFSPlus, false))
	}
	return cells
}

// table3 prints Table 3: RDFS-Plus over LUBM and the taxonomies.
func table3(cells []cell) {
	benchHeader("== Table 3: RDFS-Plus, execution time (ms) ==")
	for _, c := range cells {
		printBenchRow(c)
	}
	fmt.Println()
}

// chainCells measures Table 4's cells: transitive closure over
// subClassOf chains. Inferray runs RDFS-default; the hash-join engine
// runs semi-naive SCM-SCO and the graph engine the naive fixpoint whose
// duplicate explosion motivates §4.1, both under ρdf.
func chainCells(cfg scaleCfg) []cell {
	var cells []cell
	for _, n := range cfg.chainLens {
		triples := datagen.Chain(n)
		c := cell{name: fmt.Sprint(n)}
		c.paper, c.shipped = runBothInferray(triples, rules.RDFSDefault)
		facts, v := encodeFacts(triples, rules.RhoDF)
		c.measureBaselines(facts, rules.Specs(rules.RhoDF, v), cfg.chainHashCap, cfg.chainGraphCap)
		cells = append(cells, c)
	}
	return cells
}

// table4 prints Table 4. The paper column runs Inferray's dedicated
// Nuutila stage (θ) and is the one the paper's linearity claim is
// judged on; closure and normalize split its time like inferray -stats
// does: the θ stage, and the sort + dedup of the loaded tables before
// it. The shipped column keeps the chain's closure virtual.
func table4(cells []cell) {
	fmt.Println("== Table 4: transitive closure of subClassOf chains, time (ms) ==")
	fmt.Printf(chainRowFmt,
		"Chain", "paper", "closure", "normalize", "shipped", "HashJoin", "Graph", "inferred",
		"paper mat/virt", "shipped mat/virt")
	for _, c := range cells {
		fmt.Printf(chainRowFmt,
			c.name, ms(c.paper.time, false),
			ms(c.paper.stats.ClosureTime, false), ms(c.paper.stats.NormalizeTime, false),
			ms(c.shipped.time, false), ms(c.hash.time, !c.hash.ran), ms(c.graph.time, !c.graph.ran),
			kfmt(c.paper.stats.InferredTriples), matVirt(c.paper.stats), matVirt(c.shipped.stats))
	}
	fmt.Println()
}
