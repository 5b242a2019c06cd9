package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func smokeEnv(t *testing.T) *env {
	return &env{seed: 1, sz: smokeSizes(), scratch: t.TempDir(), tr: newTracer()}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, twice at
// the smoke size: every catalogued metric is present, finite and carries
// its unit, nothing fails, and the exact counts repeat.
func TestWorkloadsSmoke(t *testing.T) {
	reported := map[string]bool{}
	defer func() {
		for _, d := range perLayer {
			if !reported[d.Name] {
				t.Errorf("per-layer metric %s is reported by no workload", d.Name)
			}
		}
	}()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var exact []map[string]int64
			for round := 0; round < 2; round++ {
				e := smokeEnv(t)
				res, err := runWorkload(w, e, true, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d: %+v", res.Attempted, res.Failed, res.Checks)
				}
				checkMetrics(t, "end-to-end", res.EndToEnd, endToEnd, true)
				checkMetrics(t, "per-layer", res.PerLayer, perLayer, false)
				for name := range res.PerLayer {
					reported[name] = true
				}
				checkSelfTimes(t, e.tr.spans)
				if len(e.tr.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				exact = append(exact, res.Exact)

				var line struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(driverLine(res, false)), &line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
					t.Errorf("driver line malformed: %s", driverLine(res, false))
				}
				line.Metrics = nil
				if err := json.Unmarshal([]byte(driverLine(res, true)), &line); err != nil || len(line.Metrics) != len(perLayer) {
					t.Errorf("traced driver line lists %d metrics, catalogue %d (%v)", len(line.Metrics), len(perLayer), err)
				}
			}
			if len(exact[0]) == 0 || !reflect.DeepEqual(exact[0], exact[1]) {
				t.Errorf("exact counts differ between two runs of one seed:\n%v\n%v", exact[0], exact[1])
			}
		})
	}
}

// checkMetrics: what a workload reports is catalogued, finite and in
// the catalogue's unit; end-to-end metrics are all there and never 0.
func checkMetrics(t *testing.T, kind string, got metrics, defs []metricDef, all bool) {
	t.Helper()
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range got {
		if !known[name] {
			t.Errorf("%s metric %s is not in the catalogue", kind, name)
		}
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok && all:
			t.Errorf("%s metric %s missing", kind, d.Name)
		case !ok:
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s is %v", kind, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s metric %s has unit %q, catalogue says %q", kind, d.Name, m.Unit, d.Unit)
		case all && m.Value <= 0:
			t.Errorf("%s metric %s is %v; end-to-end metrics are never 0", kind, d.Name, m.Value)
		}
	}
}

// checkSelfTimes: within every root span's tree the self times add up to
// the root's duration.
func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	sum := make([]int64, len(spans))
	for i := len(spans) - 1; i >= 0; i-- { // children are recorded after their parent
		sum[i] += self[i]
		if p := spans[i].Parent; p >= 0 {
			if p >= i {
				t.Fatalf("span %d has parent %d recorded after it", i, p)
			}
			sum[p] += sum[i]
		}
	}
	for i, s := range spans {
		if s.Parent < 0 && sum[i] != s.EndNS-s.StartNS {
			t.Errorf("root span %d (%s): self times sum to %d ns, duration is %d ns", i, s.Name, sum[i], s.EndNS-s.StartNS)
		}
		if s.EndNS < s.StartNS || self[i] < 0 {
			t.Errorf("span %d (%s): end before start or negative self time", i, s.Name)
		}
	}
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the
// harness in step: same workloads, same metrics, same units.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name, Why string }
	}
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	var e2e []metricDef
	sawSetup := false
	for _, d := range bf.EndToEnd {
		e2e = append(e2e, d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || d.metricDef == metricDef{"setup_s", "s", "lower"}
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !sawSetup {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness catalogue:\n%v\n%v", bf.PerLayer, perLayer)
	}
}

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 101, 4000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.ExpFloat64()
		}
		sort.Float64s(s)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			// Reference: rank (n-1)p on the sorted slice, interpolated.
			h := p * float64(n-1)
			lo, hi := int(math.Floor(h)), int(math.Ceil(h))
			want := s[lo] + (h-float64(lo))*(s[hi]-s[lo])
			if got := percentile(s, p); math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
		if n%2 == 0 {
			if got, want := percentile(s, 0.5), (s[n/2-1]+s[n/2])/2; math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d: median %v, mean of middle pair %v", n, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty input: %v", got)
	}
	if got := spread([]float64{9, 10, 10, 11, 30}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread: %v, want 0.1", got)
	}
}

// TestScriptsAreSeeded: one seed names one script.
func TestScriptsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(queryScript(200, 3), queryScript(200, 3)) || reflect.DeepEqual(queryScript(200, 3), queryScript(200, 4)) {
		t.Error("query script is not a function of its seed")
	}
	counts := map[int]int{}
	for _, it := range queryScript(200, 3) {
		counts[it.class]++
	}
	for c, qc := range queryClasses {
		if counts[c] != 200*qc.weight/100 {
			t.Errorf("class %s: %d of 200 requests, weight %d%%", qc.name, counts[c], qc.weight)
		}
	}
	base := lubmIngest.generate(&env{seed: 3, sz: smokeSizes()})
	a, sa, ua := churnScript(base, 40, 3)
	b, sb, ub := churnScript(base, 40, 3)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa, sb) || ua != ub || len(sa) != len(base) {
		t.Error("churn script is not a function of its seed")
	}
}

// TestCompare: an A/A pair is ok, a slower b regresses, a moved exact
// count is reported.
func TestCompare(t *testing.T) {
	mk := func(p50 float64, iterations int64) report {
		r := report{}
		for i := 0; i < 4; i++ {
			res := newResult("lubm_ingest")
			for _, d := range endToEnd {
				res.EndToEnd.set(d.Name, 100+float64(i), d.Unit)
			}
			res.EndToEnd.set("op_p50_ms", p50+float64(i), "ms")
			res.Exact["reasoner.iterations"] = iterations
			res.Attempted = 1
			r.Runs = append(r.Runs, map[string]*result{"lubm_ingest": res})
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		if err := writeJSON(dir+"/"+name, r); err != nil {
			t.Fatal(err)
		}
		return dir + "/" + name
	}
	a, same, slow, moved := write("a.json", mk(100, 5)), write("same.json", mk(101, 5)), write("slow.json", mk(150, 5)), write("moved.json", mk(100, 6))
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {moved, 1}, {a, 0}} {
		if got := compareReports(io.Discard, a, c.b, "../BENCHMARK.json"); got != c.want {
			t.Errorf("compare a %s: exit %d, want %d", c.b, got, c.want)
		}
	}
}
