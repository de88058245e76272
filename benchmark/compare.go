package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one (metric, workload) row of b against a. A bounded
// metric has regressed when b's median is worse than a's by more than the
// bound; when either side's own spread (quartile distance over median) is
// wider than the bound the row cannot say either way and is unresolved.
// Unbounded (per-layer) metrics are listed for reading, never judged.
func verdict(a, b measured) string {
	if a.Bound <= 0 {
		return "-"
	}
	spread := func(m measured) float64 {
		if m.Median == 0 {
			return 0
		}
		return (m.Q3 - m.Q1) / math.Abs(m.Median)
	}
	if spread(a) > a.Bound || spread(b) > a.Bound {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		worse = -worse
	}
	if worse > a.Bound {
		return "regressed"
	}
	return "ok"
}

// compareReports prints one row per (metric, workload) present in both
// reports and says whether any end-to-end row regressed.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %s\n", pathA, a.Meta.GitCommit, a.Meta.Seed, a.Meta.Date)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %s\n", pathB, b.Meta.GitCommit, b.Meta.Seed, b.Meta.Date)
	fmt.Fprintf(w, "%-14s %-36s %14s %-25s %14s %-25s %9s %6s  %s\n",
		"workload", "metric", "a median", "[q1, q3]", "b median", "[q1, q3]", "delta", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, pass := range passNames {
			pa, pb := a.Workloads[wl.name][pass], b.Workloads[wl.name][pass]
			var names []string
			for name := range pa.Metrics {
				if _, ok := pb.Metrics[name]; ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				ma, mb := pa.Metrics[name], pb.Metrics[name]
				delta := 0.0
				if ma.Median != 0 {
					delta = 100 * (mb.Median - ma.Median) / math.Abs(ma.Median)
				}
				v := verdict(ma, mb)
				regressed = regressed || v == "regressed"
				bound := "-"
				if ma.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*ma.Bound)
				}
				fmt.Fprintf(w, "%-14s %-36s %14.6g %-25s %14.6g %-25s %+8.2f%% %6s  %s\n", wl.name, name,
					ma.Median, fmt.Sprintf("[%.5g, %.5g]", ma.Q1, ma.Q3),
					mb.Median, fmt.Sprintf("[%.5g, %.5g]", mb.Q1, mb.Q3), delta, bound, v)
			}
		}
	}
	return regressed, nil
}
