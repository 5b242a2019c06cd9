package rules

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// sameAsFact is one emitted pair with its table, the unit the EQ-REP
// multisets count.
type sameAsFact struct {
	pidx int
	s, o uint64
}

// emittedMultiset counts every pair the rule appended to out, repeats
// included: out is read raw, before a merge would deduplicate it.
func emittedMultiset(out *store.Store) map[sameAsFact]int {
	got := map[sameAsFact]int{}
	out.ForEach(func(pidx int, s, o uint64) bool {
		got[sameAsFact{pidx, s, o}]++
		return true
	})
	return got
}

// sameAsReference is EQ-REP from the per-pair definition, by nested
// loops: for every pass and every ⟨a, b⟩ of the A side's sameAs table
// with a ≠ b, each B-side pair with b as subject is emitted with a in
// its place (EQ-REP-S), each with b as object likewise (EQ-REP-O), and
// when a and b are both properties b's whole table is emitted under a
// (EQ-REP-P).
func sameAsReference(c *Context) map[sameAsFact]int {
	want := map[sameAsFact]int{}
	for _, pass := range c.passes() {
		same := pass.a.Table(c.V.SameAs)
		if same == nil {
			continue
		}
		sp := same.Pairs()
		for i := 0; i < len(sp); i += 2 {
			a, b := sp[i], sp[i+1]
			if a == b {
				continue
			}
			pass.b.ForEach(func(pidx int, s, o uint64) bool {
				if s == b {
					want[sameAsFact{pidx, a, o}]++
				}
				if o == b {
					want[sameAsFact{pidx, s, a}]++
				}
				if dictionary.IsProperty(a) && dictionary.IsProperty(b) && pidx == dictionary.PropIndex(b) {
					want[sameAsFact{dictionary.PropIndex(a), s, o}]++
				}
				return true
			})
		}
	}
	return want
}

// TestSameAsMatchesReference: on seeded random stores, EQ-REP emits
// exactly the reference's multiset, on a first pass and on the two
// semi-naive passes of a delta. The sameAs tables are deliberately not
// symmetric, hold self-pairs, and link properties as well as resources,
// which also appear as subjects and objects of the data tables. Both
// member tests run: the harness's dictionary is small enough that every
// pass takes the bitmap, and Terms 0 (unknown) forces the binary search.
func TestSameAsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newHarness()
			var terms, props []uint64
			for i := 0; i < 5; i++ {
				id := h.d.EncodeProperty(fmt.Sprintf("<p%d>", i))
				props = append(props, id)
				terms = append(terms, id)
			}
			for i := 0; i < 12; i++ {
				terms = append(terms, h.res(fmt.Sprintf("<r%d>", i)))
			}
			pick := func(ids []uint64) uint64 { return ids[rng.Intn(len(ids))] }
			tables := []int{h.v.SameAs, h.v.Type}
			for _, p := range props {
				tables = append(tables, dictionary.PropIndex(p))
			}
			delta := store.New(h.d.NumProperties())
			add := func(pidx int, s, o uint64) {
				h.add(pidx, s, o)
				if rng.Intn(3) == 0 {
					delta.Add(pidx, s, o)
				}
			}
			for i := 0; i < 2+rng.Intn(8); i++ {
				ids := terms
				if rng.Intn(3) == 0 {
					ids = props
				}
				a := pick(ids)
				b := a // a self-pair, one time in five
				if rng.Intn(5) > 0 {
					b = pick(ids)
				}
				add(h.v.SameAs, a, b)
			}
			for i := 0; i < 60; i++ {
				add(tables[1+rng.Intn(len(tables)-1)], pick(terms), pick(terms))
			}
			h.main.Grow(h.d.NumProperties())
			h.main.Normalize()
			delta.Normalize()

			for _, d := range []struct {
				name  string
				delta *store.Store
				terms bool
			}{
				{"first pass, bitmap", h.main, true}, {"semi-naive, bitmap", delta, true},
				{"first pass, search", h.main, false}, {"semi-naive, search", delta, false},
			} {
				out := store.New(h.main.NumSlots())
				c := h.context(d.delta, out)
				if !d.terms {
					c.Terms = 0
				}
				rule("EQ-REP").Apply(c)
				got, want := emittedMultiset(out), sameAsReference(c)
				if !maps.Equal(got, want) {
					for f, n := range want {
						if got[f] != n {
							t.Errorf("%s: table %d ⟨%d,%d⟩ emitted %d times, reference %d", d.name, f.pidx, f.s, f.o, got[f], n)
						}
					}
					for f, n := range got {
						if _, ok := want[f]; !ok {
							t.Errorf("%s: table %d ⟨%d,%d⟩ emitted %d times, not in the reference", d.name, f.pidx, f.s, f.o, n)
						}
					}
				}
			}
		})
	}
}

// TestSameAsSortsNoTableByObject: a first pass of EQ-REP leaves no ⟨o,s⟩
// list cached on any table but sameAs. The rule finds a member's
// occurrences by scanning each table's ⟨s,o⟩ pairs, so the caches a
// probe by object would build and every later splice would patch never
// come into being.
func TestSameAsSortsNoTableByObject(t *testing.T) {
	h := newHarness()
	p, q := h.prop("<p>"), h.prop("<q>")
	a, b, c := h.res("<a>"), h.res("<b>"), h.res("<c>")
	h.add(h.v.SameAs, a, b)
	h.add(h.v.SameAs, b, a)
	h.add(h.v.Type, b, c)
	h.add(p, b, c)
	h.add(q, c, b)
	out := h.run(rule("EQ-REP"))
	if !out.Table(p).Contains(a, c) || !out.Table(q).Contains(c, a) || !out.Table(h.v.Type).Contains(a, c) {
		t.Fatal("EQ-REP-S / EQ-REP-O missing")
	}
	h.main.ForEachTable(func(pidx int, tb *store.Table) bool {
		if _, ok := tb.CachedOS(); ok && pidx != h.v.SameAs {
			t.Errorf("table %d holds an ⟨o,s⟩ cache after EQ-REP", pidx)
		}
		return true
	})
}

// BenchmarkSameAsMembership times the two member tests of EQ-REP's scan
// — the bitmap over the dictionary's IDs against a binary search in the
// sameAs table's ⟨o,s⟩ list — on the same input, to place memberBits'
// threshold. The dictionary holds 300 k terms (LUBM-1M's order), the
// sameAs table `pairs` pairs over uniformly drawn terms, and the scanned
// table Terms/share pairs. Each iteration is one pass: the bitmap, when
// used, allocated anew.
//
//	go test ./internal/rules -run '^$' -bench SameAsMembership -benchtime 200x
func BenchmarkSameAsMembership(b *testing.B) {
	const terms = 300_000
	base := dictionary.PropBase - 999
	for _, pairs := range []int{4, 10_000} {
		rng := rand.New(rand.NewSource(int64(pairs)))
		same := &store.Table{}
		for i := 0; i < pairs; i++ {
			same.Append(base+uint64(rng.Intn(terms)), base+uint64(rng.Intn(terms)))
		}
		same.Normalize()
		partners := same.OS()
		for _, share := range []int{4096, 1024, 512, 256, 64, 1} {
			t := &store.Table{}
			for i := 0; i < terms/share; i++ {
				t.Append(base+uint64(rng.Intn(terms)), base+uint64(rng.Intn(terms)))
			}
			t.Normalize()
			p := t.Pairs()
			for _, path := range []string{"search", "bitmap"} {
				b.Run(fmt.Sprintf("sameAs=%d/share=1/%d/%s", pairs, share, path), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var bits []uint64
						if path == "bitmap" {
							bits = memberBits(partners, base, terms, terms)
						}
						out := store.New(1)
						replicateMembers(out, 0, p, partners, bits, base)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p)/2), "ns/pair")
				})
			}
		}
	}
}
