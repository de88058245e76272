// Command benchhot runs the hot-path benchmark suite and records the
// results into a trajectory file (BENCH_HOTPATH.json by default), one
// labeled entry per invocation. The raw `go test -bench` output is saved
// alongside it in benchstat-compatible form, so regressions can be
// inspected with the standard tooling:
//
//	go run ./cmd/benchhot -label after -count 5
//	benchstat bench/raw-before.txt bench/raw-after.txt
//
// An existing raw file can be folded into the trajectory without re-running
// anything (used to import the pre-optimization baseline):
//
//	go run ./cmd/benchhot -label before -input bench/raw-before.txt
//
// Every run records where it was measured: go version, GOMAXPROCS, CPU
// model, the GEMM micro-kernel the matmuls dispatched to, and the commit.
// They are written at the top of the raw file as `key: value` configuration
// lines of the Go benchmark format (benchstat reads them as such), and read
// back from there, so an ingested file carries its own metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"plshuffle/internal/tensor"
)

// hotPackages are the packages whose benchmarks cover the zero-allocation
// hot paths: compute kernels, the collective runtime, the wire codec, the
// transports, the storage hierarchy, and the end-to-end training epoch.
var hotPackages = []string{
	"./internal/tensor",
	"./internal/data",
	"./internal/transport",
	"./internal/transport/wirecomp",
	"./internal/transport/transporttest",
	"./internal/mpi",
	"./internal/nn",
	"./internal/shuffle",
	"./internal/store/shard",
	"./internal/store/cache",
	"./internal/checkpoint",
	"./internal/train",
}

// Result is one benchmark's aggregate over the run's repetitions.
type Result struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
	// Extra holds medians of custom b.ReportMetric columns keyed by unit
	// (e.g. "wait-ns/op", "comm-ns/op" from the gradient-sync benches).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Run is one labeled invocation of the suite. The machine fields are empty
// for runs recorded before PR 12 and for ingested files without a header.
type Run struct {
	Label      string   `json:"label"`
	Date       string   `json:"date"`
	Count      int      `json:"count"`
	GoVersion  string   `json:"go_version,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	GemmKernel string   `json:"gemm_kernel,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Results    []Result `json:"results"`
}

// Trajectory is the file format of BENCH_HOTPATH.json: an append-only
// sequence of runs, oldest first.
type Trajectory struct {
	Runs []Run `json:"runs"`
}

func main() {
	var (
		label  = flag.String("label", time.Now().Format("2006-01-02"), "label for this run in the trajectory")
		count  = flag.Int("count", 5, "benchmark repetitions (-count)")
		benchP = flag.String("bench", ".", "benchmark name pattern (-bench)")
		filter = flag.String("filter", "", "run exactly one benchmark by name (anchored; overrides -bench)")
		out    = flag.String("out", "BENCH_HOTPATH.json", "trajectory file to append to")
		rawDir = flag.String("rawdir", "bench", "directory for raw benchstat-compatible output")
		input  = flag.String("input", "", "ingest an existing raw benchmark file instead of running go test")
	)
	flag.Parse()
	if *filter != "" {
		// Iterating on one kernel benchmark shouldn't pay for the whole
		// suite: anchor the name so MatMul512 doesn't also match
		// MatMul5120 and friends. The Benchmark prefix is optional.
		*benchP = "^Benchmark" + regexp.QuoteMeta(strings.TrimPrefix(*filter, "Benchmark")) + "$"
	}

	var raw []byte
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		raw = b
	} else {
		args := append([]string{"test", "-run", "^$", "-bench", *benchP, "-benchmem",
			"-count", strconv.Itoa(*count)}, hotPackages...)
		fmt.Fprintf(os.Stderr, "benchhot: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			os.Stderr.Write(b) // the failing benchmark's own message is in here
			fatal(fmt.Errorf("go test -bench: %w", err))
		}
		raw = append(machineHeader(), b...)
		if err := os.MkdirAll(*rawDir, 0o755); err != nil {
			fatal(err)
		}
		rawPath := filepath.Join(*rawDir, "raw-"+sanitize(*label)+".txt")
		if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchhot: raw output -> %s\n", rawPath)
	}

	results := parseRaw(string(raw))
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed"))
	}
	traj := Trajectory{}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &traj); err != nil {
			fatal(fmt.Errorf("parsing existing %s: %w", *out, err))
		}
	}
	run := Run{
		Label:   *label,
		Date:    time.Now().UTC().Format(time.RFC3339),
		Count:   *count,
		Results: results,
	}
	readMachineHeader(string(raw), &run)
	traj.Runs = append(traj.Runs, run)
	b, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchhot: %d benchmarks -> %s (run %q)\n", len(results), *out, *label)
}

// machineHeader describes this process's toolchain and machine — the ones
// the `go test` child just ran on — as benchmark-format configuration lines.
// (The CPU model needs no line: `go test` prints its own `cpu:`.)
func machineHeader() []byte {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return []byte(fmt.Sprintf("goversion: %s\ngomaxprocs: %d\ngemm-kernel: %s\ncommit: %s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), tensor.GemmKernelName(), commit))
}

var configLine = regexp.MustCompile(`^([a-z][a-z-]*):\s+(.+)$`)

// readMachineHeader fills run's machine fields from raw's configuration
// lines. (`cpu:` repeats once per package, with the same value.)
func readMachineHeader(raw string, run *Run) {
	for _, line := range strings.Split(raw, "\n") {
		m := configLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		switch m[1] {
		case "goversion":
			run.GoVersion = m[2]
		case "gomaxprocs":
			run.GOMAXPROCS, _ = strconv.Atoi(m[2]) // 0 (omitted) if malformed
		case "cpu":
			run.CPUModel = m[2]
		case "gemm-kernel":
			run.GemmKernel = m[2]
		case "commit":
			run.Commit = m[2]
		}
	}
}

// benchHead matches a `go test -bench` result line's name and iteration
// count, with or without the GOMAXPROCS suffix; the value columns that
// follow (ns/op, optional MB/s, -benchmem columns, and any custom
// b.ReportMetric units like wait-ns/op) are tokenized by metricPair.
var benchHead = regexp.MustCompile(`^(Benchmark[^\s-]+)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// metricPair matches one "<value> <unit>" column of a benchmark line.
var metricPair = regexp.MustCompile(`([\d.]+(?:[eE][+-]?\d+)?)\s+(\S+)`)

var pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

type sampleSet struct {
	ns, b, allocs []float64
	extra         map[string][]float64
}

// parseRaw extracts per-benchmark medians from raw `go test -bench` output.
func parseRaw(raw string) []Result {
	cur := ""
	samples := map[[2]string]*sampleSet{}
	var order [][2]string
	for _, line := range strings.Split(raw, "\n") {
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			cur = m[1]
			continue
		}
		m := benchHead.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pairs := metricPair.FindAllStringSubmatch(m[3], -1)
		hasNs := false
		for _, p := range pairs {
			if p[2] == "ns/op" {
				hasNs = true
			}
		}
		if !hasNs {
			continue // not a result line (e.g. a benchmark log message)
		}
		key := [2]string{cur, m[1]}
		s, ok := samples[key]
		if !ok {
			s = &sampleSet{extra: map[string][]float64{}}
			samples[key] = s
			order = append(order, key)
		}
		for _, p := range pairs {
			v, unit := atof(p[1]), p[2]
			switch unit {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.b = append(s.b, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			case "MB/s":
				// throughput of the ns/op column; redundant, skip
			default:
				// Any custom b.ReportMetric column ("wait-ns/op",
				// "snapshot-B/model-B", ...) is kept keyed by its unit.
				s.extra[unit] = append(s.extra[unit], v)
			}
		}
	}
	out := make([]Result, 0, len(order))
	for _, key := range order {
		s := samples[key]
		r := Result{
			Pkg:         key[0],
			Name:        key[1],
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.b),
			AllocsPerOp: median(s.allocs),
			Samples:     len(s.ns),
		}
		if len(s.extra) > 0 {
			r.Extra = make(map[string]float64, len(s.extra))
			for unit, vs := range s.extra {
				r.Extra[unit] = median(vs)
			}
		}
		out = append(out, r)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func atof(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchhot:", err)
	os.Exit(1)
}
