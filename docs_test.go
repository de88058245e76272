package plshuffle_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
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
