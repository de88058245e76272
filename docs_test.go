package plshuffle_test

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"plshuffle/internal/telemetry"
)

// TestDocsNameExistingPaths keeps README.md and DESIGN.md true to the
// repository: every ./cmd/… or ./examples/… package a `go run` or `go build`
// line names must be a directory, and every backticked cmd/… or internal/…
// path must exist (a trailing exported identifier, as in
// internal/store.Local, names something inside the package).
func TestDocsNameExistingPaths(t *testing.T) {
	goCmd := regexp.MustCompile(`\bgo (?:run|build)\b`)
	goPkg := regexp.MustCompile(`\./(?:cmd|examples)/[\w./-]*`)
	ticked := regexp.MustCompile("`((?:cmd|internal)/[^`\\s]*)")
	ident := regexp.MustCompile(`\.[A-Z]\w*(\.\w+)*$`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if at := goCmd.FindStringIndex(line); at != nil {
				for _, pkg := range goPkg.FindAllString(line[at[1]:], -1) {
					if st, err := os.Stat(strings.TrimRight(pkg, "./")); err != nil || !st.IsDir() {
						t.Errorf("%s:%d: %q names no package directory", doc, i+1, pkg)
					}
				}
			}
			for _, m := range ticked.FindAllStringSubmatch(line, -1) {
				path := ident.ReplaceAllString(strings.TrimRight(m[1], "/.,:;"), "")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d: `%s` names no file or directory", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestDesignDocBudget keeps DESIGN.md a statement of the current design:
// history and measurements belong in CHANGES.md, so the document stays
// short enough to read in one sitting.
func TestDesignDocBudget(t *testing.T) {
	const budget = 1500
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n >= budget {
		t.Errorf("DESIGN.md has %d lines, want fewer than %d: move history and measured tables to CHANGES.md", n, budget)
	}
}

// TestMetricRegistryNamesTrainSeries keeps DESIGN.md's metric name registry
// true to the bundles that register without a world: every family that
// telemetry.TrainMetrics and ControllerMetrics register must be listed,
// either in full or as a "_suffix" after a full name on the same line that
// shares the rest of the name.
func TestMetricRegistryNamesTrainSeries(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(text)
	start := strings.Index(doc, "### Metric name registry")
	if start < 0 {
		t.Fatal("DESIGN.md has no metric name registry")
	}
	end := strings.Index(doc[start+1:], "\n### ")
	if end < 0 {
		end = len(doc) - start - 1
	}
	lines := strings.Split(doc[start:start+1+end], "\n")

	reg := telemetry.NewRegistry()
	new(telemetry.TrainMetrics).Register(reg, 0)
	telemetry.NewControllerMetrics([]string{"hold"}).Register(reg, 0)
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	full := regexp.MustCompile(`\bpls_\w+`)
	suffix := regexp.MustCompile(`(?:^|[\s/])(_\w+)`)
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(out.String(), -1) {
		if !listed(m[1], lines, full, suffix) {
			t.Errorf("DESIGN.md's metric name registry does not list %s", m[1])
		}
	}
}

// listed reports whether name appears on a registry line, in full or as a
// suffix whose prefix begins a full name on that line.
func listed(name string, lines []string, full, suffix *regexp.Regexp) bool {
	for _, line := range lines {
		names := full.FindAllString(line, -1)
		for _, n := range names {
			if n == name {
				return true
			}
		}
		for _, s := range suffix.FindAllStringSubmatch(line, -1) {
			prefix, ok := strings.CutSuffix(name, s[1])
			if !ok {
				continue
			}
			for _, n := range names {
				if strings.HasPrefix(n, prefix+"_") {
					return true
				}
			}
		}
	}
	return false
}
