package closure

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// floydWarshall is the reachability oracle: closed[u][v] = true iff a
// path of length ≥ 1 exists.
func floydWarshall(n int, edges [][2]int) [][]bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, e := range edges {
		reach[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	return reach
}

// closePairsSet runs Close and returns the result as a set of [2]uint64.
func closePairsSet(pairs []uint64) map[[2]uint64]bool {
	out := Close(pairs)
	set := make(map[[2]uint64]bool, len(out)/2)
	for i := 0; i < len(out); i += 2 {
		set[[2]uint64{out[i], out[i+1]}] = true
	}
	return set
}

func edgesToPairs(edges [][2]int, idOf func(int) uint64) []uint64 {
	pairs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		pairs = append(pairs, idOf(e[0]), idOf(e[1]))
	}
	return pairs
}

func checkAgainstOracle(t *testing.T, n int, edges [][2]int, idOf func(int) uint64) {
	t.Helper()
	got := closePairsSet(edgesToPairs(edges, idOf))
	want := floydWarshall(n, edges)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			key := [2]uint64{idOf(u), idOf(v)}
			if want[u][v] && !got[key] {
				t.Fatalf("missing closure pair (%d,%d); edges=%v", u, v, edges)
			}
			if !want[u][v] && got[key] {
				t.Fatalf("spurious closure pair (%d,%d); edges=%v", u, v, edges)
			}
		}
	}
	// No pairs outside the node universe.
	for key := range got {
		found := false
		for u := 0; u < n; u++ {
			if key[0] == idOf(u) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("closure invented node %v", key)
		}
	}
}

func TestCloseHandPicked(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"empty", 0, nil},
		{"single-edge", 2, [][2]int{{0, 1}}},
		{"chain", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{"self-loop", 2, [][2]int{{0, 0}, {0, 1}}},
		{"two-cycle", 2, [][2]int{{0, 1}, {1, 0}}},
		{"triangle-cycle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
		{"two-components", 6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}},
		{"cycle-with-tail", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}},
		{"parallel-edges", 3, [][2]int{{0, 1}, {0, 1}, {1, 2}, {1, 2}}},
		{"converging", 5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}}},
		{"nested-cycles", 6, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 5}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkAgainstOracle(t, c.n, c.edges, func(i int) uint64 { return uint64(i + 100) })
		})
	}
}

// TestCloseRandomGraphsQuick compares Close with the Floyd–Warshall
// oracle on random digraphs, using scattered 64-bit node IDs to exercise
// the dense renumbering.
func TestCloseRandomGraphsQuick(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 2
		nEdges := int(rawE % 120)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = (1 << 32) + uint64(rng.Intn(1<<20))*7 + uint64(i)
		}
		edges := make([][2]int, nEdges)
		for i := range edges {
			edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		out := Close(edgesToPairs(edges, func(i int) uint64 { return ids[i] }))
		got := make(map[[2]uint64]bool, len(out)/2)
		for i := 0; i < len(out); i += 2 {
			got[[2]uint64{out[i], out[i+1]}] = true
		}
		want := floydWarshall(n, edges)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if want[u][v] != got[[2]uint64{ids[u], ids[v]}] {
					return false
				}
			}
		}
		// Each pair exactly once: the set and the output agree in size.
		return len(got) == countTrue(want) && len(out)/2 == countTrue(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func countTrue(m [][]bool) int {
	n := 0
	for _, row := range m {
		for _, b := range row {
			if b {
				n++
			}
		}
	}
	return n
}

// TestCloseChainSize verifies the exact (n²−n)/2 + n pair count for a
// chain (the n input edges are included in the output).
func TestCloseChainSize(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 500} {
		pairs := make([]uint64, 0, 2*n)
		for i := 0; i < n; i++ {
			pairs = append(pairs, uint64(i+1), uint64(i+2))
		}
		out := Close(pairs)
		want := (n*n + n) / 2 // all i<j pairs over n+1 nodes = n(n+1)/2
		if len(out)/2 != want {
			t.Errorf("chain %d: %d pairs, want %d", n, len(out)/2, want)
		}
	}
}

func TestCloseFullCycleIncludesReflexive(t *testing.T) {
	// A 4-cycle: every node reaches every node including itself.
	pairs := []uint64{1, 2, 2, 3, 3, 4, 4, 1}
	got := closePairsSet(pairs)
	if len(got) != 16 {
		t.Fatalf("4-cycle closure has %d pairs, want 16", len(got))
	}
}

func TestCloseDuplicateEdges(t *testing.T) {
	got := Close([]uint64{1, 2, 1, 2, 2, 3})
	set := make(map[[2]uint64]int)
	for i := 0; i < len(got); i += 2 {
		set[[2]uint64{got[i], got[i+1]}]++
	}
	want := map[[2]uint64]int{{1, 2}: 1, {2, 3}: 1, {1, 3}: 1}
	if !reflect.DeepEqual(map[[2]uint64]int(set), want) {
		t.Fatalf("got %v want %v", set, want)
	}
}

func TestTarjanReverseTopologicalOrder(t *testing.T) {
	// DAG 0→1→2, plus 3↔4 cycle feeding 2: SCC ids must satisfy
	// id(successor) < id(predecessor) in the condensation.
	es := []int32{0, 1, 3, 4, 3}
	ed := []int32{1, 2, 4, 3, 2}
	adjStart, adj := csr(5, es, ed)
	scc, nscc, selfLoop := tarjanSCC(5, adjStart, adj)
	if nscc != 4 {
		t.Fatalf("nscc = %d, want 4", nscc)
	}
	if scc[3] != scc[4] {
		t.Fatal("cycle nodes must share an SCC")
	}
	if !(scc[2] < scc[1] && scc[1] < scc[0]) {
		t.Fatalf("chain order violated: %v", scc)
	}
	if scc[2] >= scc[3] {
		t.Fatalf("edge 3→2 must go to a smaller id: %v", scc)
	}
	if !selfLoop[scc[3]] || selfLoop[scc[0]] || selfLoop[scc[2]] {
		t.Fatalf("selfLoop flags wrong: %v", selfLoop)
	}
}

func TestCollectNodes(t *testing.T) {
	nodes := collectNodes([]uint64{5, 3, 3, 5, 9, 1})
	want := []uint64{1, 3, 5, 9}
	if !reflect.DeepEqual(nodes, want) {
		t.Fatalf("got %v want %v", nodes, want)
	}
}

func TestCloseDeepChainPerformanceShape(t *testing.T) {
	// Smoke test that a 2000-node chain closes fully; guards against
	// accidental quadratic SCC behaviour (would time out).
	n := 2000
	pairs := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, uint64(i+1), uint64(i+2))
	}
	out := Close(pairs)
	if len(out)/2 != (n*n+n)/2 {
		t.Fatalf("deep chain closure size wrong: %d", len(out)/2)
	}
	// Output must cover node 1 reaching the last node.
	found := false
	for i := 0; i < len(out); i += 2 {
		if out[i] == 1 && out[i+1] == uint64(n+1) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("head does not reach tail")
	}
}
