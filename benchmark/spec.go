package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
)

// metricDef is one metric of BENCHMARK.json, the single place where names,
// units, directions and bounds are fixed. Per-layer metrics have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json and checks it against the program: the
// workloads are exactly the ones compiled in, and every name is well formed
// and used once.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the program has %d", path, len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: name %q does not match %s", path, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program has %q", path, i, w.Name, workloads[i].name)
		}
		if err := use(w.Name); err != nil {
			return nil, err
		}
	}
	for _, group := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return nil, err
			}
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				return nil, fmt.Errorf("%s: metric %q needs a unit and a direction", path, m.Name)
			}
		}
	}
	return &s, nil
}

// measured is one reported metric: its definition joined with the
// distribution of its samples.
type measured struct {
	summary
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// check is one correctness check of a pass.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// passResult is what one pass (timed or traced) of one workload reports.
type passResult struct {
	Attempted int                 `json:"attempted"` // rank-epochs
	Failed    int                 `json:"failed"`
	Slowdown  float64             `json:"slowdown,omitempty"` // timed pass: calibration time over the reference's
	Checks    []check             `json:"checks"`
	Metrics   map[string]measured `json:"metrics"`
}

func (p *passResult) correct() bool {
	for _, c := range p.Checks {
		if !c.OK {
			return false
		}
	}
	return p.Failed == 0
}

func (p *passResult) check(name string, ok bool, format string, args ...any) bool {
	p.Checks = append(p.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	return ok
}

// bind joins sampled values with their definitions. Every defined metric
// must have been sampled and nothing else may have been: a missing or an
// unknown name fails the pass.
func (p *passResult) bind(defs []metricDef, samples map[string][]float64) {
	p.Metrics = make(map[string]measured, len(defs))
	for _, d := range defs {
		xs, ok := samples[d.Name]
		if !ok || len(xs) == 0 {
			p.check("metric "+d.Name, false, "defined in BENCHMARK.json but not measured")
			continue
		}
		if slices.ContainsFunc(xs, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
			p.check("metric "+d.Name, false, "not a finite number: %v", xs)
			continue
		}
		p.Metrics[d.Name] = measured{summary: summarize(xs), Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	defined := map[string]bool{}
	for _, d := range defs {
		defined[d.Name] = true
	}
	for name := range samples {
		if !defined[name] {
			p.check("metric "+name, false, "measured but not defined in BENCHMARK.json")
		}
	}
}

// report is the file -out writes and -compare reads.
type report struct {
	Meta      metadata                         `json:"meta"`
	Workloads map[string]map[string]passResult `json:"workloads"` // workload → "end_to_end" | "per_layer"
}
