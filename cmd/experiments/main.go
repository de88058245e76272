// Command experiments regenerates the paper's tables and figures as text
// tables. Each experiment ID matches DESIGN.md's per-experiment index.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5e
//	experiments -run fig1,fig9,fig10
//	experiments -run all -short
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"plshuffle/internal/experiments"
)

// writeCSVs dumps every figure of the result as <dir>/<id>-<n>.csv.
func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, fig := range res.Figures {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", res.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fig.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list available experiment IDs and exit")
	run := flag.String("run", "", "comma-separated experiment IDs, or 'all'")
	short := flag.Bool("short", false, "reduced epochs for a quick pass")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 = default)")
	csvDir := flag.String("csv", "", "also write each figure's series grid as CSV into this directory")
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %s\n", e.ID)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id>[,<id>...] or -run all")
		}
		return
	}

	opts := experiments.Options{Short: *short, Seed: *seed}
	var ids []string
	if *run == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		res, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s regenerated in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
