package inferray

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/sparql"
)

// orderTestRun is a run with three slots (v, w, i) over an empty
// dictionary, so every pushed term gets a query-local ID.
func orderTestRun() *run {
	pl := &plan{slots: map[string]int{}}
	for _, name := range []string{"v", "w", "i"} {
		pl.slot(name)
	}
	return &run{plan: pl, dict: dictionary.New()}
}

// The bounded ORDER BY buffer must retain at most k rows no matter how
// many are pushed — that is the whole point of the top-k heap — and
// deliver exactly what the stable full sort + OFFSET/LIMIT delivered.
func TestTopKBoundedAndEquivalent(t *testing.T) {
	keys := []sparql.OrderKey{{Var: "v"}, {Var: "w", Desc: true}}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 5, 17} {
		rn := orderTestRun()
		bounded := newOrderBuffer(rn, keys, k)
		full := newOrderBuffer(rn, keys, -1)
		var ref [][3]string      // the reference: decoded rows, stable-sorted below
		row := make([]uint64, 3) // reused like the engine's row: the buffer must copy
		for i := 0; i < 2000; i++ {
			terms := [3]string{fmt.Sprintf(`"%03d"`, rng.Intn(40)), fmt.Sprintf("<t%d>", rng.Intn(3)), fmt.Sprint(i)}
			bound := uint64(7)
			if i%11 == 0 {
				bound, terms[0] = 6, "" // v unbound: sorts before every bound v
			}
			for slot, term := range terms {
				row[slot] = rn.encode(term)
			}
			ref = append(ref, terms)
			bounded.push(row, bound)
			full.push(row, bound)
			if len(bounded.rows) > k {
				t.Fatalf("k=%d: heap holds %d rows", k, len(bounded.rows))
			}
		}
		arrivals := func(ob *orderBuffer) (out []string) {
			ob.flush(func(ids []uint64, bound uint64) bool {
				out = append(out, rn.decode(ids[2]))
				return true
			})
			return out
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if c := sparql.CompareTerms(ref[i][0], ref[j][0]); c != 0 {
				return c < 0
			}
			return sparql.CompareTerms(ref[i][1], ref[j][1]) > 0
		})
		var want []string
		for _, terms := range ref {
			want = append(want, terms[2])
		}
		if all := arrivals(full); !slices.Equal(all, want) {
			t.Fatalf("k=%d: the unbounded buffer is not the stable sort", k)
		}
		got := arrivals(bounded)
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d rows, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: row %d is arrival %s, full sort kept %s", k, i, got[i], want[i])
			}
		}
	}
}

// The full-sort path must behave exactly like a stable sort on the
// arrival order (the seq tiebreak is what makes sort.Slice stable
// here).
func TestOrderBufferStableTies(t *testing.T) {
	rn := orderTestRun()
	ob := newOrderBuffer(rn, []sparql.OrderKey{{Var: "v"}}, -1)
	for i := 0; i < 50; i++ {
		ob.push([]uint64{rn.encode(`"tie"`), 0, rn.encode(fmt.Sprint(i))}, 5)
	}
	i := 0
	ob.flush(func(ids []uint64, bound uint64) bool {
		if got := rn.decode(ids[2]); got != fmt.Sprint(i) {
			t.Fatalf("tie order broken at %d: %s", i, got)
		}
		i++
		return true
	})
	if i != 50 {
		t.Fatalf("flushed %d rows", i)
	}
}
