package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload through both passes at smoke size and holds
// the output to the driver's contract: BENCHMARK.json loads, every metric it
// defines is measured, every check passes, and the last line is the result
// object. It is the schema check, not a measurement.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five 4-rank TCP worlds")
	}
	// The benchmark runs from the root of the checkout.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defs := [2][]metricDef{spec.EndToEnd, spec.PerLayer}
	for _, w := range workloads {
		for pass := range passNames {
			var out bytes.Buffer
			code, err := runBenchmark(options{spec: "BENCHMARK.json", workload: w.name, seed: 7, trace: pass,
				traceOut: filepath.Join(t.TempDir(), "trace.json"), smoke: true}, &out)
			if err != nil || code != 0 {
				t.Fatalf("%s/%s: exit %d, err %v\n%s", w.name, passNames[pass], code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s/%s: last line is not the result object: %v", w.name, passNames[pass], err)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s/%s: result %s\n%s", w.name, passNames[pass], lines[len(lines)-1], out.String())
			}
			if len(res.Metrics) != len(defs[pass]) {
				t.Errorf("%s/%s: %d metrics, BENCHMARK.json defines %d", w.name, passNames[pass], len(res.Metrics), len(defs[pass]))
			}
			for _, d := range defs[pass] {
				if m, ok := res.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s/%s: metric %s missing or without its unit %q", w.name, passNames[pass], d.Name, d.Unit)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(median, q1, q3 float64, better string) measured {
		return measured{summary: summary{Median: median, Q1: q1, Q3: q3}, Better: better, Bound: 0.1}
	}
	for _, c := range []struct {
		name string
		a, b measured
		want string
	}{
		{"within the bound", m(100, 99, 101, "higher"), m(95, 94, 96, "higher"), "ok"},
		{"better", m(100, 99, 101, "lower"), m(50, 49, 51, "lower"), "ok"},
		{"higher-is-better fell", m(100, 99, 101, "higher"), m(85, 84, 86, "higher"), "regressed"},
		{"lower-is-better rose", m(100, 99, 101, "lower"), m(115, 114, 116, "lower"), "regressed"},
		{"spread wider than the bound", m(100, 90, 110, "higher"), m(80, 79, 81, "higher"), "unresolved"},
		{"no bound", measured{summary: summary{Median: 1}}, measured{summary: summary{Median: 2}}, "-"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
