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
// member tests run: a pass over a random delta or all of main fills the
// term set, and the Main⋈Delta pass of a one-pair delta searches when
// main's sameAs table holds more than eight pairs (memberSet); the test
// fails unless each ran.
func TestSameAsMatchesReference(t *testing.T) {
	ran := map[bool]int{} // passes by memberSet's answer
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newRandomStores(seed)
			h, rng := f.testHarness, f.rng
			tables := []int{h.v.SameAs, h.v.Type}
			for _, p := range f.props {
				tables = append(tables, dictionary.PropIndex(p))
			}
			for i := 0; i < 2+rng.Intn(8); i++ {
				ids := f.terms
				if rng.Intn(3) == 0 {
					ids = f.props
				}
				a := f.pick(ids)
				b := a // a self-pair, one time in five
				if rng.Intn(5) > 0 {
					b = f.pick(ids)
				}
				f.add(h.v.SameAs, a, b)
			}
			one := store.New(f.d.NumProperties())
			for i := 0; i < 60; i++ {
				pidx, s, o := tables[1+rng.Intn(len(tables)-1)], f.pick(f.terms), f.pick(f.terms)
				f.add(pidx, s, o)
				if i == 0 {
					one.Add(pidx, s, o)
				}
			}
			f.normalize()
			one.Normalize()

			for _, d := range []struct {
				name  string
				delta *store.Store
			}{
				{"first pass", h.main}, {"semi-naive", f.delta}, {"one-pair delta", one},
			} {
				out := store.New(h.main.NumSlots())
				c := h.context(d.delta, out)
				for _, pass := range c.passes() {
					if same := pass.a.Table(h.v.SameAs); same != nil && !same.Empty() {
						ran[memberSet(pass.b.Size(), same.Size())]++
					}
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
	if ran[true] == 0 || ran[false] == 0 {
		t.Errorf("passes by member test: %d set, %d search; want both", ran[true], ran[false])
	}
}

// randomStores is the seeded random-store harness of the reference
// tests: five properties and twelve resources, all of them terms, and a
// delta that receives each added pair one time in three, so that it is
// a subset of main as a round's delta is.
type randomStores struct {
	*testHarness
	rng          *rand.Rand
	terms, props []uint64
	delta        *store.Store
}

func newRandomStores(seed int64) *randomStores {
	f := &randomStores{testHarness: newHarness(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 5; i++ {
		id := f.d.EncodeProperty(fmt.Sprintf("<p%d>", i))
		f.props = append(f.props, id)
		f.terms = append(f.terms, id)
	}
	for i := 0; i < 12; i++ {
		f.terms = append(f.terms, f.res(fmt.Sprintf("<r%d>", i)))
	}
	f.delta = store.New(f.d.NumProperties())
	return f
}

func (f *randomStores) pick(ids []uint64) uint64 { return ids[f.rng.Intn(len(ids))] }

// add adds ⟨s, o⟩ to table pidx of main and, one time in three, of the
// delta.
func (f *randomStores) add(pidx int, s, o uint64) {
	f.testHarness.add(pidx, s, o)
	if f.rng.Intn(3) == 0 {
		f.delta.Add(pidx, s, o)
	}
}

func (f *randomStores) normalize() {
	f.main.Grow(f.d.NumProperties())
	f.main.Normalize()
	f.delta.Normalize()
}

// TestFuncPropMatchesReference: on seeded random stores, PRP-FP and
// PRP-IFP emit what the per-run definition allows, on a first pass, on
// the two semi-naive passes of a random delta, and on a delta that holds
// only markers. A run is the members y of one marked property p and one
// key x over Main: ⟨x p y⟩ for PRP-FP, ⟨y p x⟩ for PRP-IFP. Three checks:
// every emitted link joins two distinct members of one run (a body
// match); every pair of distinct members of a run with a premise in the
// delta is connected by the emitted links, which is all the sameAs θ
// closure needs; and every link lies in a run the delta touches, by the
// marker or by a pair with the run's key, so the rule reads no run the
// delta leaves alone.
func TestFuncPropMatchesReference(t *testing.T) {
	for _, name := range []string{"PRP-FP", "PRP-IFP"} {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				f := newRandomStores(seed)
				h, rng := f.testHarness, f.rng
				inverse := name == "PRP-IFP"
				marker := h.v.FunctionalProp
				if inverse {
					marker = h.v.InverseFunctionalProp
				}
				markers := store.New(h.d.NumProperties())
				for _, p := range f.props {
					if rng.Intn(3) > 0 {
						f.add(h.v.Type, p, marker)
						if rng.Intn(2) == 0 {
							markers.Add(h.v.Type, p, marker)
						}
					}
				}
				f.add(h.v.Type, f.res("<r0>"), marker) // not a property: no run
				for i := 0; i < 60; i++ {
					f.add(dictionary.PropIndex(f.pick(f.props)), f.pick(f.terms), f.pick(f.terms))
				}
				f.normalize()
				markers.Normalize()

				for _, d := range []struct {
					name  string
					delta *store.Store
				}{{"first pass", h.main}, {"semi-naive", f.delta}, {"markers only", markers}} {
					out := store.New(h.main.NumSlots())
					c := h.context(d.delta, out)
					rule(name).Apply(c)
					out.ForEachTable(func(pidx int, tb *store.Table) bool {
						if pidx != h.v.SameAs && !tb.Empty() {
							t.Errorf("%s: %d pairs emitted to table %d", d.name, tb.Size(), pidx)
						}
						return true
					})
					checkFuncProp(t, d.name, c, marker, inverse, out.Table(h.v.SameAs))
				}
			})
		}
	}
}

// funcPropRun is one run of TestFuncPropMatchesReference: its members,
// and whether the delta touches it.
type funcPropRun struct {
	members map[uint64]bool
	touched bool
}

// checkFuncProp makes TestFuncPropMatchesReference's three checks of
// the links in same against runs built by nested loops over c's stores.
func checkFuncProp(t *testing.T, name string, c *Context, marker uint64, inverse bool, same *store.Table) {
	t.Helper()
	type runKey struct {
		pidx int
		key  uint64
	}
	runs := map[runKey]*funcPropRun{}
	var heads [][2]uint64 // pairs of distinct members with a delta premise
	c.Main.ForEach(func(pidx int, p, m uint64) bool {
		if pidx != c.V.Type || m != marker || !dictionary.IsProperty(p) {
			return true
		}
		table := dictionary.PropIndex(p)
		markerNew := c.Delta.Contains(c.V.Type, p, marker)
		c.Main.ForEach(func(qidx int, s, o uint64) bool {
			if qidx != table {
				return true
			}
			k, y := s, o
			if inverse {
				k, y = o, s
			}
			r := runs[runKey{table, k}]
			if r == nil {
				r = &funcPropRun{members: map[uint64]bool{}}
				runs[runKey{table, k}] = r
			}
			r.members[y] = true
			r.touched = r.touched || markerNew || c.Delta.Contains(table, s, o)
			return true
		})
		return true
	})
	for k, r := range runs {
		for y1 := range r.members {
			for y2 := range r.members {
				s1, o1, s2, o2 := k.key, y1, k.key, y2
				if inverse {
					s1, o1, s2, o2 = y1, k.key, y2, k.key
				}
				if y1 != y2 && (c.Delta.Contains(c.V.Type, dictionary.PropID(k.pidx), marker) ||
					c.Delta.Contains(k.pidx, s1, o1) || c.Delta.Contains(k.pidx, s2, o2)) {
					heads = append(heads, [2]uint64{y1, y2})
				}
			}
		}
	}

	parent := map[uint64]uint64{}
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		if p, ok := parent[x]; ok && p != x {
			parent[x] = find(p)
			return parent[x]
		}
		return x
	}
	var links []uint64
	if same != nil {
		links = same.RawPairs()
	}
	for i := 0; i < len(links); i += 2 {
		a, b := links[i], links[i+1]
		match, inTouched := false, false
		for _, r := range runs {
			if a != b && r.members[a] && r.members[b] {
				match, inTouched = true, inTouched || r.touched
			}
		}
		if !match {
			t.Errorf("%s: emitted ⟨%d sameAs %d⟩ matches no body over Main", name, a, b)
		} else if !inTouched {
			t.Errorf("%s: emitted ⟨%d sameAs %d⟩ from a run the delta does not touch", name, a, b)
		}
		parent[find(a)] = find(b)
	}
	for _, hd := range heads {
		if find(hd[0]) != find(hd[1]) {
			t.Errorf("%s: head ⟨%d sameAs %d⟩ has a delta premise but its ends are not linked", name, hd[0], hd[1])
		}
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

// BenchmarkSameAsMembership times the two sides of memberSet's switch —
// EQ-REP's scan testing members in the rule's term set against a binary
// search in the sameAs table's ⟨o,s⟩ list — on the same input. The
// dictionary holds 300 k terms (LUBM-1M's order), the sameAs table
// `pairs` pairs over uniformly drawn terms, and the scanned table
// Terms/share pairs. Each iteration is one pass: the set, allocated once
// as the engine's are, filled with the members and cleared again. The
// side memberSet picks reports picked=1.
//
//	go test ./internal/rules -run '^$' -bench SameAsMembership -benchtime 200x
func BenchmarkSameAsMembership(b *testing.B) {
	const terms = 300_000
	base := dictionary.PropBase - 999
	var set store.TermSet
	set.Reset(base, terms)
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
			for _, path := range []string{"search", "set"} {
				b.Run(fmt.Sprintf("sameAs=%d/share=1/%d/%s", pairs, share, path), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var in *store.TermSet
						if path == "set" {
							in = &set
							in.AddKeys(partners)
						}
						out := store.New(1)
						replicateMembers(out, 0, p, partners, in)
						set.Clear()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p)/2), "ns/pair")
					if memberSet(len(p)/2, same.Size()) == (path == "set") {
						b.ReportMetric(1, "picked")
					}
				})
			}
		}
	}
}
