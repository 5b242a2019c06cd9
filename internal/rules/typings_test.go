package rules

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/hierarchy"
	"inferray/internal/store"
)

// typingFixture builds three sub-properties that share a domain class D
// and a range class R over overlapping subjects and objects; p1 alone
// also has domain D1 and range R1, one table's worth of each. pad extra
// resources are registered first, so a caller can make the dictionary
// large against the fixture.
func typingFixture(pad int) (h *testHarness, props []int) {
	h = newHarness()
	for i := 0; i < pad; i++ {
		h.res(fmt.Sprintf("<pad%d>", i))
	}
	D, R, D1, R1 := h.res("<D>"), h.res("<R>"), h.res("<D1>"), h.res("<R1>")
	a, b, c, d := h.res("<a>"), h.res("<b>"), h.res("<c>"), h.res("<d>")
	x, y, z := h.res("<x>"), h.res("<y>"), h.res("<z>")
	facts := [][][2]uint64{
		{{a, x}, {a, y}, {b, x}, {d, x}},
		{{a, x}, {c, z}, {b, z}},
		{{b, y}, {c, x}, {d, x}, {a, y}},
	}
	for i, f := range facts {
		p := h.prop(fmt.Sprintf("<p%d>", i+1))
		props = append(props, p)
		h.add(h.v.Domain, dictionary.PropID(p), D)
		h.add(h.v.Range, dictionary.PropID(p), R)
		for _, so := range f {
			h.add(p, so[0], so[1])
		}
	}
	h.add(h.v.Domain, dictionary.PropID(props[0]), D1)
	h.add(h.v.Range, dictionary.PropID(props[0]), R1)
	h.main.Grow(h.d.NumProperties())
	h.main.Normalize()
	return h, props
}

// naiveTypings is the emission before deduplication, as a set: every
// ⟨p, c⟩ of a pass's schema table types every subject (object) of the
// pass's instance table of p.
func naiveTypings(c *Context, schema int, subjects bool) map[[2]uint64]bool {
	want := map[[2]uint64]bool{}
	for _, pass := range c.passes() {
		st := pass.a.Table(schema)
		if st == nil {
			continue
		}
		sp := st.Pairs()
		for i := 0; i < len(sp); i += 2 {
			inst := pass.b.Table(dictionary.PropIndex(sp[i]))
			if inst == nil {
				continue
			}
			ip := inst.Pairs()
			for j := 0; j < len(ip); j += 2 {
				x := ip[j+1]
				if subjects {
					x = ip[j]
				}
				want[[2]uint64{x, sp[i+1]}] = true
			}
		}
	}
	return want
}

// TestTypingsEmittedOnce: PRP-DOM's and PRP-RNG's raw output holds each
// ⟨x, c⟩ once, and as a set equals the emission before deduplication —
// on a first pass and on a semi-naive one, over a small dictionary and
// one padded with 5000 further terms.
func TestTypingsEmittedOnce(t *testing.T) {
	for _, pad := range []int{0, 5000} {
		for _, firstPass := range []bool{true, false} {
			h, props := typingFixture(pad)
			delta := h.main
			if !firstPass {
				// A delta is a subset of main: one schema pair and a few
				// instance pairs.
				delta = store.New(h.main.NumSlots())
				delta.Add(h.v.Domain, dictionary.PropID(props[2]), h.res("<D>"))
				delta.Add(h.v.Range, dictionary.PropID(props[2]), h.res("<R>"))
				delta.Add(props[0], h.res("<a>"), h.res("<x>"))
				delta.Add(props[1], h.res("<b>"), h.res("<z>"))
				delta.Add(props[2], h.res("<c>"), h.res("<x>"))
				delta.Normalize()
			}
			for _, tc := range []struct {
				rule     Rule
				schema   int
				subjects bool
			}{
				{rule("PRP-DOM"), h.v.Domain, true},
				{rule("PRP-RNG"), h.v.Range, false},
			} {
				label := fmt.Sprintf("%s pad=%d firstPass=%t", tc.rule.Name, pad, firstPass)
				out := store.New(h.main.NumSlots())
				c := h.context(delta, out)
				tc.rule.Apply(c)
				want := naiveTypings(c, tc.schema, tc.subjects)
				got := map[[2]uint64]bool{}
				raw := out.Table(h.v.Type).RawPairs()
				for i := 0; i < len(raw); i += 2 {
					k := [2]uint64{raw[i], raw[i+1]}
					if got[k] {
						t.Errorf("%s: ⟨%s type %s⟩ emitted twice", label, h.d.MustDecode(k[0]), h.d.MustDecode(k[1]))
					}
					got[k] = true
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d distinct typings, want %d", label, len(got), len(want))
				}
				for k := range want {
					if !got[k] {
						t.Errorf("%s: missing ⟨%s type %s⟩", label, h.d.MustDecode(k[0]), h.d.MustDecode(k[1]))
					}
				}
			}
		}
	}
}

// TestSmallDeltaAllocatesNoStamps: a one-pair delta against a large
// dictionary deduplicates its few typings without allocating in
// proportion to the dictionary, and the rule's term set — the harness's,
// as the engine keeps one per rule — is kept from one application to the
// next: once the first application has sized it, an application
// allocates less than a set over the dictionary's terms would take (a
// bit per term).
func TestSmallDeltaAllocatesNoStamps(t *testing.T) {
	const pad = 100_000
	h, props := typingFixture(pad)
	delta := store.New(h.main.NumSlots())
	delta.Add(props[2], h.res("<c>"), h.res("<x>"))
	delta.Normalize()
	rng := rule("PRP-RNG")
	rng.Apply(h.context(delta, store.New(h.main.NumSlots())))
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rng.Apply(h.context(delta, store.New(h.main.NumSlots())))
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per >= pad {
		t.Errorf("a one-pair delta allocated %d bytes per PRP-RNG application against %d terms", per, pad)
	}
	if per >= pad/8 {
		t.Errorf("a one-pair delta allocated %d bytes per PRP-RNG application, a term set's worth (%d bytes for %d terms): the rule's set is not kept", per, pad/8, pad)
	}
}

// TestUpExpansionFromMinimalClassesOnly: under the hierarchy encoding,
// SCM-DOM1 expands ⟨p domain c⟩ only for a class minimal in p's run. With
// C ⊑ D ⊑ E and p's run {C, D, E}, only C is expanded; a later round
// whose delta holds ⟨p domain D⟩ emits nothing; and inside a subsumption
// cycle every member expands.
func TestUpExpansionFromMinimalClassesOnly(t *testing.T) {
	h := newHarness()
	p := dictionary.PropID(h.prop("<p>"))
	C, D, E := h.res("<C>"), h.res("<D>"), h.res("<E>")
	h.add(h.v.SubClassOf, C, D)
	h.add(h.v.SubClassOf, D, E)
	for _, cls := range []uint64{C, D, E} {
		h.add(h.v.Domain, p, cls)
	}
	h.main.Normalize()
	hier := func() *hierarchy.Index {
		return hierarchy.Build(h.main.Table(h.v.SubClassOf).Pairs(), nil, h.v.Type, h.v.SubClassOf, h.v.SubPropertyOf)
	}
	apply := func(delta *store.Store, idx *hierarchy.Index) []uint64 {
		out := store.New(h.main.NumSlots())
		c := h.context(delta, out)
		c.Hier = idx
		rule("SCM-DOM1").Apply(c)
		if t := out.Table(h.v.Domain); t != nil {
			return t.RawPairs()
		}
		return nil
	}
	deltaOf := func(cls uint64) *store.Store {
		d := store.New(h.main.NumSlots())
		d.Add(h.v.Domain, p, cls)
		d.Normalize()
		return d
	}
	idx := hier()
	if got, want := apply(h.main, idx), []uint64{p, D, p, E}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("first pass emitted %v, want C's supers only %v", got, want)
	}
	if got := apply(deltaOf(D), idx); len(got) != 0 {
		t.Errorf("a delta holding the non-minimal ⟨p domain D⟩ emitted %v", got)
	}
	if got := apply(deltaOf(C), idx); len(got) != 4 {
		t.Errorf("a delta holding the minimal ⟨p domain C⟩ emitted %v, want 2 pairs", got)
	}

	// A cycle D ⊑ C makes C and D one class. A cycle mate shadows nothing
	// here: both members expand, each to both members and E, because
	// ⟨p domain C⟩ may be derived from ⟨p domain D⟩ and a retraction of
	// the latter must reach it.
	h.add(h.v.SubClassOf, D, C)
	h.main.Normalize()
	got := apply(h.main, hier())
	if len(got) != 12 {
		t.Errorf("cycle: emitted %v, want ⟨p, C⟩, ⟨p, D⟩, ⟨p, E⟩ twice each", got)
	}
	if got := apply(deltaOf(D), hier()); len(got) != 6 {
		t.Errorf("cycle: a delta holding ⟨p domain D⟩ emitted %v, want ⟨p, C⟩, ⟨p, D⟩, ⟨p, E⟩", got)
	}
}

// BenchmarkTypingsDedup times the deduplication of a γ application —
// each class's instances through the rule's term set — over a grid of
// input sizes. The dictionary holds 300 k terms (LUBM-1M's order); the
// typings to deduplicate come to 1/share of them, spread over 32 classes
// reached through 3 instance tables each, with instances drawn
// uniformly from the dictionary. side=0 is a domain (each table's
// subjects sorted), side=1 a range (objects in any order). Each
// iteration is one application: both passes of emitTypings, the set
// allocated once as the engine's are.
//
//	go test ./internal/rules -run '^$' -bench TypingsDedup -benchtime 200x
func BenchmarkTypingsDedup(b *testing.B) {
	const terms, classes, tables = 300_000, 32, 3
	base := dictionary.PropBase - 999
	var set store.TermSet
	set.Reset(base, terms)
	for _, share := range []int{1024, 256, 128, 64, 32, 16, 4} {
		rng := rand.New(rand.NewSource(int64(share)))
		per := max(1, terms/share/(classes*tables))
		var groups [][]typing
		for c := 0; c < classes; c++ {
			var g []typing
			for t := 0; t < tables; t++ {
				so := make([][2]uint64, per)
				for i := range so {
					so[i] = [2]uint64{base + uint64(rng.Intn(terms)), base + uint64(rng.Intn(terms))}
				}
				slices.SortFunc(so, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
				pairs := make([]uint64, 0, 2*per)
				for _, p := range so {
					pairs = append(pairs, p[0], p[1])
				}
				g = append(g, typing{uint64(c), t, pairs})
			}
			groups = append(groups, g)
		}
		for side := 0; side < 2; side++ {
			b.Run(fmt.Sprintf("share=1/%d/side=%d", share, side), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					for _, g := range groups {
						n += distinct(&set, g, side, nil)
					}
					out := &store.Table{}
					out.Reserve(n)
					for _, g := range groups {
						distinct(&set, g, side, out)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(classes*tables*per), "ns/typing")
			})
		}
	}
}
