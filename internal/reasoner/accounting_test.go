package reasoner

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"inferray/internal/datagen"
	"inferray/internal/metrics"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestGuardTripRoundAccounting: a round's rules, merge and maintain times
// are disjoint spans of the loop, so they sum to at most LoopTime, on
// Stats and on /metrics alike. The insert of ⟨X rdfs:subClassOf
// rdfs:Class⟩ into an encoded RDFS-Plus engine trips guard G1 in the
// round that merges it, whose maintenance then expands the whole virtual
// closure through a nested merge round. Over LUBM(200000) that expansion
// is most of the loop: counting it both as the nested round's merge and
// maintenance and as the outer round's maintenance pushes the parts past
// the loop.
func TestGuardTripRoundAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true, Metrics: NewMetrics(reg)})
	e.LoadTriples(datagen.LUBM(200_000, 1))
	e.Materialize()
	if e.HierView() == nil {
		t.Fatal("fixture: LUBM must keep the encoding")
	}
	before := scrapeSeconds(t, reg)
	e.LoadTriples([]rdf.Triple{{S: "<X>", P: rdf.RDFSSubClassOf, O: rdf.RDFSClass}})
	st := e.Materialize()
	after := scrapeSeconds(t, reg)
	if e.HierView() != nil {
		t.Fatal("a subclass of rdfs:Class must trip guard G1 and drop the encoding")
	}

	var parts time.Duration
	for _, r := range st.Rounds {
		parts += r.RulesTime + r.MergeTime + r.MaintainTime
	}
	if parts > st.LoopTime {
		t.Errorf("rounds sum to %v of rules, merge and maintain inside a %v loop: %+v", parts, st.LoopTime, st.Rounds)
	}

	delta := func(series string) float64 { return after[series] - before[series] }
	loop := delta(`inferray_reasoner_phase_seconds_total{phase="loop"}`)
	var split float64
	for _, part := range []string{"rules", "merge", "maintain"} {
		split += delta(`inferray_reasoner_loop_seconds_total{part="` + part + `"}`)
	}
	if loop <= 0 || split > loop {
		t.Errorf("/metrics: the loop split moved by %gs, the loop phase by %gs", split, loop)
	}
}

// scrapeSeconds renders reg in the exposition format and returns every
// sample of the reasoner's phase and loop-part counters by series.
func scrapeSeconds(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for sc := bufio.NewScanner(&b); sc.Scan(); {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(series, "inferray_reasoner_phase_seconds_total{") &&
			!strings.HasPrefix(series, "inferray_reasoner_loop_seconds_total{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", sc.Text(), err)
		}
		samples[series] = v
	}
	return samples
}
