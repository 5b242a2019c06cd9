package store

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTermSetMatchesMap: over seeded random adds, bulk adds of a pair
// list's keys, clears and resets, the set answers Add, Has and Each
// exactly as a map does. The ID range grows both ways between uses, as
// the dictionary's does — new properties move its low end down, new
// resources its high end up — and after every clear or reset no bit of
// the set is left standing.
func TestTermSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s TermSet
		lo, n := uint64(1<<40), 1+rng.Intn(100)
		s.Reset(lo, n)
		want := map[uint64]bool{}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 2: // the dictionary grew: new properties and resources
				down, up := rng.Intn(70), rng.Intn(300)
				lo, n = lo-uint64(down), n+down+up
				s.Reset(lo, n)
				clear(want)
			case r < 4:
				s.Clear()
				clear(want)
			case r < 8: // a pair list's keys; its payloads lie out of range
				var p []uint64
				for range rng.Intn(6) {
					p = append(p, lo+uint64(rng.Intn(n)), 0)
				}
				s.AddKeys(p)
				for i := 0; i < len(p); i += 2 {
					want[p[i]] = true
				}
			default:
				x := lo + uint64(rng.Intn(n))
				if got := s.Add(x); got == want[x] {
					t.Fatalf("seed %d step %d: Add(%d) = %t with the term present=%t", seed, step, x, got, want[x])
				}
				want[x] = true
			}
			if len(want) == 0 {
				for i, w := range s.words[:cap(s.words)] {
					if w != 0 {
						t.Fatalf("seed %d step %d: word %d = %#x after a reset", seed, step, i, w)
					}
				}
			}
			for range 4 {
				if x := lo + uint64(rng.Intn(n)); s.Has(x) != want[x] {
					t.Fatalf("seed %d step %d: Has(%d) = %t, want %t", seed, step, x, s.Has(x), want[x])
				}
			}
			if step%50 == 0 {
				var got, exp []uint64
				s.Each(func(x uint64) { got = append(got, x) })
				for x := range want {
					exp = append(exp, x)
				}
				slices.Sort(got)
				slices.Sort(exp)
				if !slices.Equal(got, exp) {
					t.Fatalf("seed %d step %d: Each gave %v, want %v", seed, step, got, exp)
				}
			}
		}
	}
}

// TestTermSetReuseAllocatesNothing: the zero set holds no memory, and
// once sized, a set reused over a range that moves within its capacity
// — the low end down, the high end up — allocates nothing further.
func TestTermSetReuseAllocatesNothing(t *testing.T) {
	var s TermSet
	if s.Has(1000) || cap(s.words) != 0 {
		t.Fatalf("the zero set holds %d words", cap(s.words))
	}
	s.Reset(1000, 1<<20)
	lo, n := uint64(1000), 1<<20
	if allocs := testing.AllocsPerRun(100, func() {
		lo, n = lo-1, n+3
		s.Reset(lo, n)
		s.Add(lo + 12345)
		s.Add(lo + uint64(n) - 1)
	}); allocs != 0 {
		t.Errorf("reusing the set allocated %.0f times per use", allocs)
	}
}
