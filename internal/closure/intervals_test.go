package closure

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitsetOracle mirrors IntervalSet operations on a plain map for
// comparison.
type bitsetOracle map[int32]bool

func (b bitsetOracle) equal(s *IntervalSet) bool {
	if len(b) != s.Cardinality() {
		return false
	}
	ok := true
	s.ForEach(func(x int32) {
		if !b[x] {
			ok = false
		}
	})
	return ok
}

func TestIntervalSetAddBasics(t *testing.T) {
	var s IntervalSet
	if !s.Empty() || s.Cardinality() != 0 {
		t.Fatal("zero value must be empty")
	}
	s.AddRange(5, 5)
	s.AddRange(7, 7)
	s.AddRange(6, 6) // merges [5,5] and [7,7] into [5,7]
	if s.Intervals() != 1 || s.Cardinality() != 3 {
		t.Fatalf("coalescing failed: %d intervals, card %d", s.Intervals(), s.Cardinality())
	}
	s.AddRange(5, 5) // duplicate
	if s.Cardinality() != 3 {
		t.Fatal("duplicate add changed the set")
	}
	if !s.Contains(6) || s.Contains(4) || s.Contains(8) {
		t.Fatal("contains wrong")
	}
}

func TestIntervalSetAddQuick(t *testing.T) {
	f := func(values []int16) bool {
		var s IntervalSet
		oracle := bitsetOracle{}
		for _, v := range values {
			x := int32(v)
			if x < 0 {
				x = -x
			}
			s.AddRange(x, x)
			oracle[x] = true
		}
		return oracle.equal(&s) && intervalsWellFormed(&s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetUnionQuick(t *testing.T) {
	f := func(a, b []int16) bool {
		var sa, sb IntervalSet
		oracle := bitsetOracle{}
		for _, v := range a {
			x := int32(v)
			if x < 0 {
				x = -x
			}
			sa.AddRange(x, x)
			oracle[x] = true
		}
		for _, v := range b {
			x := int32(v)
			if x < 0 {
				x = -x
			}
			sb.AddRange(x, x)
			oracle[x] = true
		}
		sa.UnionWith(&sb)
		return oracle.equal(&sa) && intervalsWellFormed(&sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// intervalsWellFormed checks the structural invariant: sorted, disjoint,
// non-adjacent intervals.
func intervalsWellFormed(s *IntervalSet) bool {
	prevHi := int32(-2)
	iv := s.Spans()
	for i := 0; i < len(iv); i += 2 {
		lo, hi := iv[i], iv[i+1]
		if lo > hi || int(lo) <= int(prevHi)+1 {
			return false
		}
		prevHi = hi
	}
	return true
}

func TestIntervalSetAddRange(t *testing.T) {
	var s IntervalSet
	s.AddRange(10, 20)
	s.AddRange(15, 25) // overlap
	s.AddRange(27, 30) // gap of one (26) keeps intervals apart
	if s.Cardinality() != 20 {
		t.Fatalf("cardinality %d, want 20", s.Cardinality())
	}
	if s.Intervals() != 2 {
		t.Fatalf("intervals %d, want 2", s.Intervals())
	}
	s.AddRange(26, 26) // bridges the gap
	if s.Intervals() != 1 || s.Cardinality() != 21 {
		t.Fatalf("bridge failed: %d intervals, card %d", s.Intervals(), s.Cardinality())
	}
	s.AddRange(5, 3) // inverted range is a no-op
	if s.Cardinality() != 21 {
		t.Fatal("inverted AddRange changed the set")
	}
}

func TestIntervalSetClone(t *testing.T) {
	var s IntervalSet
	s.AddRange(1, 5)
	c := s.Clone()
	c.AddRange(100, 100)
	if s.Contains(100) {
		t.Fatal("clone aliases original")
	}
	if !c.Contains(3) || c.Cardinality() != 6 {
		t.Fatal("clone content wrong")
	}
}

func TestIntervalSetDenseClosurePattern(t *testing.T) {
	// The access pattern Nuutila generates: union many suffix ranges.
	// The result must stay compact (one interval).
	var s IntervalSet
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		var o IntervalSet
		lo := int32(rng.Intn(50))
		o.AddRange(lo, lo+int32(rng.Intn(100)))
		s.UnionWith(&o)
		if !intervalsWellFormed(&s) {
			t.Fatal("invariant broken mid-union")
		}
	}
	s.AddRange(0, 200)
	if s.Intervals() != 1 {
		t.Fatalf("dense unions must collapse to one interval, got %d", s.Intervals())
	}
}
