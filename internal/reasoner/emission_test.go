package reasoner

import (
	"fmt"
	"slices"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/metrics"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestTaxonomyEmissionBudget is the deterministic gate on what the γ
// typings hand the merge (DESIGN.md §2 "Emitting once"). On YagoLike(20),
// each ⟨x, c⟩ used to be emitted once per instance table reaching x, for
// every table of c: round 2's PRP-DOM + PRP-RNG came to 5.6× the round's
// new triples. In every round they must now stay within 2× of them. And
// no rule may leave an ⟨o,s⟩ copy of the rdf:type table behind just to
// look up marker subjects.
func TestTaxonomyEmissionBudget(t *testing.T) {
	tax := datagen.YagoLike(20)
	tax.Seed = 1
	triples := tax.Generate()
	// A round's share of the per-rule counters is read as the difference
	// between runs stopped one round apart.
	var (
		cum    []map[string]uint64 // per run, every rule's pairs so far
		rounds []RoundStats
	)
	for k := 1; ; k++ {
		m := NewMetrics(metrics.NewRegistry())
		e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true, Metrics: m, MaxIterations: k})
		e.LoadTriples(triples)
		st := e.Materialize()
		if st.Iterations < k {
			if tt := e.Main.Table(e.V.Type); tt != nil {
				if _, ok := tt.CachedOS(); ok {
					t.Error("the rdf:type table holds an ⟨o,s⟩ list after Materialize")
				}
			}
			break
		}
		pairs := map[string]uint64{}
		m.RulePairs.Each(func(values []string, c *metrics.Counter) { pairs[values[0]] = c.Value() })
		cum = append(cum, pairs)
		rounds = st.Rounds
	}
	if len(rounds) != 3 {
		t.Fatalf("%d rounds, want 3", len(rounds))
	}
	for i, r := range rounds {
		round := map[string]uint64{}
		for name, n := range cum[i] {
			if i > 0 {
				n -= cum[i-1][name]
			}
			if n > 0 {
				round[name] = n
			}
		}
		typings := round["PRP-DOM"] + round["PRP-RNG"]
		t.Logf("round %d: new %d, emitted %d, PRP-DOM + PRP-RNG %d; by rule %v",
			i+1, r.NewTriples, r.Emitted, typings, sortedCounts(round))
		if typings > 2*uint64(r.NewTriples) {
			t.Errorf("round %d: PRP-DOM + PRP-RNG emitted %d pairs for %d new triples (budget 2×)",
				i+1, typings, r.NewTriples)
		}
	}
}

// TestSchemaExpansionFromMinimalClasses follows SCM-DOM1 / SCM-RNG1 under
// the encoding through rounds, batches and a hierarchy change. With
// C ⊑ D ⊑ E, q's domain and range C, and p ⊑ q: ⟨p domain C⟩ arrives in
// round 1 (SCM-DOM2, from q) and ⟨p domain D⟩, ⟨p domain E⟩ in round 2
// (SCM-DOM2 again, from what SCM-DOM1 added to q). By round 3 every class
// reaching the up rules has C below it, so they emit nothing — where
// they used to re-expand D and E. The stored domain and range tables
// equal a one-shot run's and the visible closure the hash-join oracle's,
// also when the same triples arrive in batches and when a later
// subClassOf edge makes the up rules re-sweep the whole table.
func TestSchemaExpansionFromMinimalClasses(t *testing.T) {
	sc := func(a, b string) rdf.Triple { return rdf.Triple{S: a, P: rdf.RDFSSubClassOf, O: b} }
	batches := [][]rdf.Triple{
		{
			sc("<C>", "<D>"), sc("<D>", "<E>"),
			{S: "<q>", P: rdf.RDFSDomain, O: "<C>"}, {S: "<q>", P: rdf.RDFSRange, O: "<C>"},
			{S: "<x>", P: "<p>", O: "<y>"}, {S: "<u>", P: "<q>", O: "<v>"},
		},
		{{S: "<p>", P: rdf.RDFSSubPropertyOf, O: "<q>"}},
		{sc("<E>", "<F>")}, // the class hierarchy changes: a full re-sweep
	}
	opts := func(m *Metrics, rounds int) Options {
		return Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true, Metrics: m, MaxIterations: rounds}
	}
	upPairs := func(rounds int) uint64 {
		m := NewMetrics(metrics.NewRegistry())
		e := New(opts(m, rounds))
		e.LoadTriples(slices.Concat(batches[0], batches[1]))
		e.Materialize()
		return m.RulePairs.With("SCM-DOM1").Value() + m.RulePairs.With("SCM-RNG1").Value()
	}
	if two, all := upPairs(2), upPairs(0); two != all {
		t.Errorf("SCM-DOM1 + SCM-RNG1 emitted %d pairs after round 2 (%d in two rounds, %d in all)", all-two, two, all)
	}

	inc := New(opts(nil, 0))
	var union []rdf.Triple
	for i, b := range batches {
		union = append(union, b...)
		inc.LoadTriples(b)
		inc.Materialize()
		one := New(opts(nil, 0))
		one.LoadTriples(union)
		one.Materialize()
		for _, pidx := range []int{inc.V.Domain, inc.V.Range} {
			got, want := storedSurface(inc, pidx), storedSurface(one, pidx)
			if !slices.Equal(got, want) {
				t.Errorf("batch %d: stored %s table %v, one-shot %v", i+1, inc.Dict.MustDecode(dictionary.PropID(pidx)), got, want)
			}
		}
		checkAgainstOracle(t, inc, opts(nil, 0), fmt.Sprintf("batch %d", i+1))
		if err := inc.CheckCarried(); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
}

// storedSurface decodes the stored pairs of one table, sorted.
func storedSurface(e *Engine, pidx int) []string {
	var out []string
	if t := e.Main.Table(pidx); t != nil {
		for p, i := t.Pairs(), 0; i < len(p); i += 2 {
			out = append(out, e.Dict.MustDecode(p[i])+" "+e.Dict.MustDecode(p[i+1]))
		}
	}
	slices.Sort(out)
	return out
}

// sortedCounts renders per-rule counts in rule-name order.
func sortedCounts(m map[string]uint64) []string {
	var out []string
	for name, n := range m {
		out = append(out, fmt.Sprintf("%s=%d", name, n))
	}
	slices.Sort(out)
	return out
}
