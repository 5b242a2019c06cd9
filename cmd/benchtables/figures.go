package main

import (
	"fmt"

	"inferray/cmd/benchtables/internal/memsim"
	"inferray/cmd/benchtables/internal/standin"
	"inferray/internal/datagen"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
)

// figure7 reproduces Figure 7: simulated cache misses, dTLB misses and
// page faults per inferred triple for the transitive-closure benchmark.
// Volumes (input / inferred / duplicate-generated) come from real runs;
// the address streams are replayed through the cache model (the
// substitution for perf counters, DESIGN.md §3).
func figure7(cfg scaleCfg) {
	fmt.Println("== Figure 7: memory behaviour per inferred triple (closure bench, simulated) ==")
	fmt.Printf("%-8s %-12s %12s %12s %12s %10s\n",
		"Chain", "System", "LLC/triple", "dTLB/triple", "PF/triple", "L1 rate")
	lens := []int{}
	for _, n := range cfg.chainLens {
		if n >= 500 && n <= 2500 {
			lens = append(lens, n)
		}
	}
	if len(lens) == 0 {
		lens = []int{500, 1000, 2500}
	}
	for _, n := range lens {
		input := n
		inferred := datagen.ChainClosureSize(n)
		// Duplicate generation of the naive strategy, measured for real.
		_, generated := naiveChainGenerated(n)

		rows := []struct {
			system string
			pt     memsim.PerTriple
		}{
			{"inferray", memsim.Normalize(memsim.InferrayProfile(input, inferred), inferred)},
			{"rdfox-like", memsim.Normalize(memsim.HashJoinProfile(input, inferred), inferred)},
			{"owlim-like", memsim.Normalize(memsim.GraphProfile(input, inferred, generated), inferred)},
		}
		for _, r := range rows {
			fmt.Printf("%-8d %-12s %12.3f %12.3f %12.4f %9.1f%%\n",
				n, r.system, r.pt.CacheMisses, r.pt.TLBMisses, r.pt.PageFaults, 100*r.pt.L1MissRate)
		}
	}
	fmt.Println()
}

// naiveChainGenerated measures the naive strategy's candidate volume on
// a chain. The count grows cubically, so beyond 500 nodes it is
// extrapolated from a measured run instead of paid for.
func naiveChainGenerated(n int) (closedPairs, generated int) {
	measured := n
	if measured > 500 {
		measured = 500
	}
	pairs := make([]uint64, 0, 2*measured)
	for i := 0; i < measured; i++ {
		pairs = append(pairs, uint64(i+1), uint64(i+2))
	}
	closed, gen := standin.NaiveTransitiveClosure(pairs)
	if measured < n {
		scale := float64(n) / float64(measured)
		return datagen.ChainClosureSize(n) + n, int(float64(gen) * scale * scale * scale)
	}
	return len(closed) / 2, gen
}

// figure8 reproduces Figure 8: the same counters for the RDFS-Plus
// benchmark datasets. The naive graph engine's candidate volume is
// modelled as inferred × iterations (each naive round re-derives every
// derivable fact).
func figure8(cfg scaleCfg) {
	fmt.Println("== Figure 8: memory behaviour per inferred triple (RDFS-Plus bench, simulated) ==")
	fmt.Printf("%-14s %-12s %12s %12s %12s %10s\n",
		"Dataset", "System", "LLC/triple", "dTLB/triple", "PF/triple", "L1 rate")

	datasets := []namedDataset{}
	for _, n := range cfg.lubmSizes {
		datasets = append(datasets, namedDataset{"LUBM " + kfmt(n), datagen.LUBM(n, 13)})
	}
	datasets = append(datasets, taxonomyDatasets(cfg)...)

	for _, ds := range datasets {
		e := reasoner.New(reasoner.Options{Fragment: rules.RDFSPlus, Parallel: true})
		e.LoadTriples(ds.triples)
		stats := e.Materialize()
		input, inferred := stats.InputTriples, stats.InferredTriples
		if inferred == 0 {
			inferred = 1
		}
		generated := inferred * stats.Iterations

		rows := []struct {
			system string
			pt     memsim.PerTriple
		}{
			{"inferray", memsim.Normalize(memsim.InferrayProfile(input, inferred), inferred)},
			{"rdfox-like", memsim.Normalize(memsim.HashJoinProfile(input, inferred), inferred)},
			{"owlim-like", memsim.Normalize(memsim.GraphProfile(input, inferred, generated), inferred)},
		}
		for _, r := range rows {
			fmt.Printf("%-14s %-12s %12.3f %12.3f %12.4f %9.1f%%\n",
				ds.name, r.system, r.pt.CacheMisses, r.pt.TLBMisses, r.pt.PageFaults, 100*r.pt.L1MissRate)
		}
	}
	fmt.Println()
}
