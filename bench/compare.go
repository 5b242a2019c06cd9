package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// valuesOf collects one end-to-end metric of one workload across a
// report's runs.
func (r *report) valuesOf(workload, name string) []float64 {
	var out []float64
	for _, set := range r.Runs {
		if res := set[workload]; res != nil {
			if v, ok := res.EndToEnd[name]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// exactDiffs lists the exact counts of one workload that are not one
// single value across every run of both reports.
func exactDiffs(workload string, reports ...*report) []string {
	seen := map[string]map[int64]bool{}
	for _, r := range reports {
		for _, set := range r.Runs {
			if res := set[workload]; res != nil {
				for name, v := range res.Exact {
					if seen[name] == nil {
						seen[name] = map[int64]bool{}
					}
					seen[name][v] = true
				}
			}
		}
	}
	var diffs []string
	for name, values := range seen {
		if len(values) > 1 {
			var vs []int64
			for v := range values {
				vs = append(vs, v)
			}
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			diffs = append(diffs, fmt.Sprintf("%s %v", name, vs))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// compareReports prints, per workload and end-to-end metric, both
// medians, how much worse b is than a, and the metric's bound, marked
// ok, regressed, or unresolved when either side's own run-to-run spread
// is wider than the bound. It returns the process exit code: 1 when
// anything regressed, failed a check, or an exact count moved.
func compareReports(out io.Writer, aPath, bPath, benchmarkPath string) int {
	var a, b report
	var bf benchmarkFile
	for _, f := range []struct {
		path string
		into any
	}{{aPath, &a}, {bPath, &b}, {benchmarkPath, &bf}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if a.Header.Seed != b.Header.Seed || a.Header.Seconds != b.Header.Seconds || a.Header.Sizes != b.Header.Sizes || a.Header.Fixed != b.Header.Fixed {
		fmt.Fprintln(out, "WARNING: the two reports were not produced with the same seed, script length and fixed options")
	}
	fmt.Fprintf(out, "a: %s  commit %s  %d runs\nb: %s  commit %s  %d runs\n", aPath, a.Header.Commit, len(a.Runs), bPath, b.Header.Commit, len(b.Runs))
	fmt.Fprintf(out, "%-15s %-22s %14s %14s %9s %7s %9s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	bad := false
	for _, w := range workloads {
		for _, d := range bf.EndToEnd {
			va, vb := a.valuesOf(w.name, d.Name), b.valuesOf(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianOf(va), medianOf(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				bad = true
			}
			fmt.Fprintf(out, "%-15s %-22s %14.6g %14.6g %+8.1f%% %6.0f%% %8.1f%%  %s\n", w.name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*sp, verdict)
		}
		for _, diff := range exactDiffs(w.name, &a, &b) {
			fmt.Fprintf(out, "%-15s exact count differs: %s\n", w.name, diff)
			bad = true
		}
		for _, r := range []*report{&a, &b} {
			for _, set := range r.Runs {
				if res := set[w.name]; res != nil && res.Failed > 0 {
					fmt.Fprintf(out, "%-15s %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
					bad = true
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
