// Command benchmark is the repository's end-to-end performance benchmark:
// five workloads, each a 4-rank world of goroutines over real loopback TCP
// trained through train.RunRank, measured end to end with tracing off and,
// in a separate traced pass, layer by layer. BENCHMARK.json at the root of
// the repository fixes the workloads, metrics, units and bounds; README.md
// in this directory explains them.
//
//	benchmark --workload compute --seed 1 --seconds 10 --trace 0   one pass, one result line
//	benchmark --seed 1 --out report.json                           every workload, both passes
//	benchmark --compare a.json b.json                              A/A and A/B verdicts
//	benchmark --smoke                                              seconds-long schema check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command line of one invocation.
type options struct {
	spec     string  // path of BENCHMARK.json
	workload string  // "" = all
	seed     uint64  // the inputs are generated from it
	seconds  float64 // measuring time of one pass; 0 = BENCHMARK.json's run_seconds
	trace    int     // 0: timed pass; 1: traced pass; -1: both
	traceOut string  // "" = .bench_build/trace-<workload>.json
	out      string  // file for the full report; "" = none
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of one pass (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", -1, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced pass writes its spans to (default: .bench_build/trace-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "file to write the full report to")
	flag.BoolVar(&o.smoke, "smoke", false, "quarter-size inputs, one epoch, one run, minimal probe counts")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	compare := flag.Bool("compare", false, "compare two reports: --compare a.json b.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two report files"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	code, err := runBenchmark(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// passNames are the keys of a report's passes, indexed by --trace.
var passNames = [2]string{"end_to_end", "per_layer"}

// runBenchmark runs the selected workloads and passes, prints progress and,
// as the last line, the result object to stdout, and returns the exit code.
func runBenchmark(o options, stdout io.Writer) (int, error) {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return 0, err
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return 0, err
		}
		selected = []workload{w}
	}
	passes := []int{0, 1}
	if o.trace == 0 || o.trace == 1 {
		passes = []int{o.trace}
	} else if o.trace != -1 {
		return 0, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}

	// Four ranks want four threads; a smaller machine gives what it has, and
	// the report records it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), ranks))
	// Everything the run writes stays under .bench_build in the checkout:
	// ingested datasets, checkpoints, and — through TMPDIR — the cache tier's
	// shard copies.
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return 0, err
	}
	work := filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	if err := os.Setenv("TMPDIR", work); err != nil {
		return 0, err
	}

	b := &bench{spec: spec, seed: o.seed, seconds: seconds, smoke: o.smoke, workDir: work, log: stdout, start: time.Now()}
	rep := report{Meta: collectMetadata(o.seed, seconds), Workloads: map[string]map[string]passResult{}}
	meta, _ := json.Marshal(rep.Meta)
	b.logf("meta %s", meta)
	correct, attempted, failed := true, 0, 0
	var last passResult
	for _, w := range selected {
		rep.Workloads[w.name] = map[string]passResult{}
		for _, pass := range passes {
			b.logf("== %s / %s (seed %d, %.0fs)", w.name, passNames[pass], o.seed, seconds)
			var p passResult
			if pass == 0 {
				p, err = b.endToEnd(w)
			} else {
				to := o.traceOut
				if to == "" {
					to = filepath.Join(build, "trace-"+w.name+".json")
				}
				p, err = b.perLayer(w, to)
			}
			for _, c := range p.Checks {
				b.logf("  check %-32s ok=%-5t %s", c.Name, c.OK, c.Detail)
			}
			if err != nil {
				return 0, err
			}
			printMetrics(b, spec, pass, p)
			rep.Workloads[w.name][passNames[pass]] = p
			correct = correct && p.correct()
			attempted += p.Attempted
			failed += p.Failed
			last = p
		}
	}
	if o.out != "" {
		js, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, append(js, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	// The result line. With one workload and one pass it carries that pass's
	// metrics, as the driver's contract asks; a multi-pass run summarises.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	if len(selected) == 1 && len(passes) == 1 {
		for k, m := range last.Metrics {
			result.Metrics[k] = value{m.Median, m.Unit}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct && (len(selected) > 1 || len(passes) > 1) {
		return 1, nil
	}
	return 0, nil
}

// printMetrics lists a pass's metrics in BENCHMARK.json's order.
func printMetrics(b *bench, spec *benchSpec, pass int, p passResult) {
	defs := spec.EndToEnd
	if pass == 1 {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		m, ok := p.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		b.logf("  %-36s %14.6g %-10s q1 %.6g q3 %.6g min %.6g max %.6g n %d  (%s is better)%s",
			d.Name, m.Median, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N, d.Better, bound)
	}
}
