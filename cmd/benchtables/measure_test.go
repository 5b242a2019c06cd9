package main

import (
	"testing"
	"time"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rules"
	"inferray/internal/sorting"
)

func TestKfmt(t *testing.T) {
	cases := map[int]string{
		7:          "7",
		999:        "999",
		1000:       "1K",
		25_000:     "25K",
		1_000_000:  "1.0M",
		25_500_000: "25.5M",
	}
	for in, want := range cases {
		if got := kfmt(in); got != want {
			t.Errorf("kfmt(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestMs(t *testing.T) {
	if got := ms(1500*time.Millisecond, false); got != "1500" {
		t.Errorf("ms = %q", got)
	}
	if got := ms(0, true); got != "-" {
		t.Errorf("skipped ms = %q", got)
	}
}

func TestEncodeFactsMatchesInput(t *testing.T) {
	triples := datagen.Chain(10)
	facts, v := encodeFacts(triples, rules.RDFSDefault)
	if len(facts) != 10 {
		t.Fatalf("%d facts, want 10", len(facts))
	}
	sco := dictionary.PropID(v.SubClassOf)
	for _, f := range facts {
		if f[1] != sco {
			t.Fatalf("fact predicate %d, want subClassOf %d", f[1], sco)
		}
	}
}

// TestRunInferraySmoke runs both Inferray columns on a chain: the paper
// configuration stores the whole closure, the shipped one keeps it
// virtual, and both infer the same number of triples.
func TestRunInferraySmoke(t *testing.T) {
	for _, encoding := range []bool{false, true} {
		r, stats := runInferray(datagen.Chain(20), rules.RDFSDefault, encoding)
		if stats.InferredTriples != datagen.ChainClosureSize(20) {
			t.Fatalf("encoding=%t: inferred %d, want %d", encoding, stats.InferredTriples, datagen.ChainClosureSize(20))
		}
		if r.time <= 0 {
			t.Fatalf("encoding=%t: non-positive duration", encoding)
		}
		if virtual := stats.VirtualTriples; encoding != (virtual > 0) {
			t.Fatalf("encoding=%t: %d virtual triples", encoding, virtual)
		}
	}
}

func TestRunBaselinesSmoke(t *testing.T) {
	facts, v := encodeFacts(datagen.Chain(15), rules.RhoDF)
	specs := rules.Specs(rules.RhoDF, v)
	if _, derived := runHashJoin(facts, specs); derived != datagen.ChainClosureSize(15) {
		t.Fatalf("hashjoin derived %d", derived)
	}
	if _, derived := runGraph(facts, specs); derived != datagen.ChainClosureSize(15) {
		t.Fatalf("graph derived %d", derived)
	}
}

// TestRunHelpersMeasure: on a 100-node chain every engine's run helper
// derives the closure and reports a run that ran, a fault count ≥ 0
// and non-zero allocated bytes, so Figures 7–8 cannot silently read 0.
func TestRunHelpersMeasure(t *testing.T) {
	const n = 100
	want := datagen.ChainClosureSize(n)
	triples := datagen.Chain(n)
	facts, v := encodeFacts(triples, rules.RhoDF)
	specs := rules.Specs(rules.RhoDF, v)
	inferray := func(encoding bool) func() (run, int) {
		return func() (run, int) {
			r, st := runInferray(triples, rules.RDFSDefault, encoding)
			return r, st.InferredTriples
		}
	}
	for name, helper := range map[string]func() (run, int){
		"paper":     inferray(false),
		"shipped":   inferray(true),
		"hash-join": func() (run, int) { return runHashJoin(facts, specs) },
		"graph":     func() (run, int) { return runGraph(facts, specs) },
		"webpie":    func() (run, int) { return runWebPIE(facts, v, false) },
	} {
		r, derived := helper()
		if derived != want {
			t.Errorf("%s: derived %d, want %d", name, derived, want)
		}
		if !r.ran || r.faults < 0 || r.bytes == 0 {
			t.Errorf("%s: measured %+v", name, r)
		}
	}
}

// TestChainShape: the check fails a cell where the paper column is
// slower or faults more than the hash-join engine, and ignores cells
// the hash-join engine skipped.
func TestChainShape(t *testing.T) {
	fast := run{ran: true, time: time.Millisecond, faults: 10}
	slow := run{ran: true, time: time.Second, faults: 1000}
	good := cell{name: "1", paper: inferrayRun{run: fast}, hash: slow}
	swapped := cell{name: "2", paper: inferrayRun{run: slow}, hash: fast}
	skipped := cell{name: "3", paper: inferrayRun{run: slow}}
	if bad := chainShape([]cell{good, skipped}); len(bad) != 0 {
		t.Fatalf("good cells flagged: %v", bad)
	}
	if bad := chainShape([]cell{swapped}); len(bad) != 2 {
		t.Fatalf("swapped cell: %v, want a time and a fault violation", bad)
	}
}

func TestGenTablePairsDenseWindow(t *testing.T) {
	pairs := genTablePairs(100, 50, 1)
	if len(pairs) != 200 {
		t.Fatal("length wrong")
	}
	base := dictionary.PropBase + 1
	for _, v := range pairs {
		if v < base || v >= base+50 {
			t.Fatalf("value %d outside the dense window", v)
		}
	}
}

func TestThroughputSmoke(t *testing.T) {
	r := throughput(func(p []uint64) { sorting.CountingSortPairs(p, false) }, 10_000, 1_000)
	if r.min <= 0 || r.min > r.median || r.median > r.max {
		t.Fatalf("throughput %+v", r)
	}
}

func TestScalesAreWellFormed(t *testing.T) {
	for name, cfg := range scales {
		if cfg.name != name {
			t.Errorf("scale %q mislabeled %q", name, cfg.name)
		}
		if len(cfg.sortSizes) == 0 || len(cfg.bsbmSizes) == 0 ||
			len(cfg.lubmSizes) == 0 || len(cfg.chainLens) == 0 {
			t.Errorf("scale %q has empty workload lists", name)
		}
		if cfg.graphCap <= 0 || cfg.hashCap <= 0 {
			t.Errorf("scale %q has non-positive caps", name)
		}
	}
}
