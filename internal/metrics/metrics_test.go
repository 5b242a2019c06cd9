package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "test", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: ≤0.1 holds 2 (0.05 and the boundary 0.1),
	// ≤1 holds 3, ≤10 holds 4, +Inf holds all 5.
	for _, line := range []string{
		`h_seconds_bucket{le="0.1"} 2`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_sum 102.65`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "test", "endpoint", "code")
	a := v.With("/query", "200")
	b := v.With("/query", "200")
	if a != b {
		t.Fatal("same label values returned different children")
	}
	if c := v.With("/query", "500"); c == a {
		t.Fatal("different label values shared a child")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatal("child identity not shared")
	}
}

func TestVecKeyNoCollision(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "test", "a", "b")
	v.With("p", "qr").Inc()
	v.With("pq", "r").Inc()
	n := 0
	v.Each(func(values []string, c *Counter) { n++ })
	if n != 2 {
		t.Fatalf("children = %d, want 2 (label tuple collision)", n)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "one")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "two")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad-name", "hyphen is not allowed")
}

// TestExpositionGolden pins the full exposition format byte-for-byte:
// family ordering, label rendering/escaping, histogram series, and
// value formatting.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z_total", "a counter, registered first but sorted last")
	c.Add(7)
	g := r.Gauge("a_gauge", "a gauge")
	g.Set(-2)
	r.GaugeFunc("build_info", "build metadata", func() float64 { return 1 },
		"version", "v1.2.3", "go", "go1.24")
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.5})
	h.Observe(0.002)
	h.Observe(0.25)
	h.Observe(3)
	v := r.CounterVec("req_total", "requests", "endpoint", "code")
	v.With("/query", "200").Add(5)
	v.With("/query", "500").Inc()
	v.With(`/we"ird`+"\n", `b\s`).Inc()

	const want = `# HELP a_gauge a gauge
# TYPE a_gauge gauge
a_gauge -2
# HELP build_info build metadata
# TYPE build_info gauge
build_info{version="v1.2.3",go="go1.24"} 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.01"} 1
lat_seconds_bucket{le="0.5"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 3.252
lat_seconds_count 3
# HELP req_total requests
# TYPE req_total counter
req_total{endpoint="/query",code="200"} 5
req_total{endpoint="/query",code="500"} 1
req_total{endpoint="/we\"ird\n",code="b\\s"} 1
# HELP z_total a counter, registered first but sorted last
# TYPE z_total counter
z_total 7
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestConcurrentUpdatesAndScrapes hammers every instrument type from
// many goroutines while scraping — meaningful under -race, and checks
// final counts for lost updates.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DurationBuckets())
	v := r.CounterVec("v_total", "v", "k")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 0.001)
				v.With("a").Inc()
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if v.With("a").Value() != workers*iters {
		t.Fatalf("vec child = %d, want %d", v.With("a").Value(), workers*iters)
	}
}

// A seconds counter accumulates nanoseconds and is exposed in seconds.
func TestSecondsCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.SecondsCounterVec("phase_seconds_total", "time by phase", "phase")
	v.With("parse").Add(uint64(1500 * time.Millisecond))
	v.With("parse").Add(uint64(250 * time.Millisecond))
	v.With("loop").Add(0)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE phase_seconds_total counter",
		`phase_seconds_total{phase="loop"} 0`,
		`phase_seconds_total{phase="parse"} 1.75`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}
