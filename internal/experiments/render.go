package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one line of a figure: a named sequence of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a named collection of series (one per strategy, typically).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// newFigure creates an empty figure.
func newFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// grid lays the figure out as a header (the x label, then one column per
// series) and one row per x value of any series, ascending. Each y is
// formatted with verb; a series with no point at a row's x leaves its cell
// empty.
func (f *Figure) grid(verb string) (header []string, rows [][]string) {
	header = []string{f.XLabel}
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		header = append(header, s.Name)
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf(verb, s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return header, rows
}

// Render writes the figure as an aligned text table: one row per x value,
// one column per series — the closest text analogue of the paper's plots.
func (f *Figure) Render(w io.Writer) error {
	header, rows := f.grid("%.4g")
	tb := &Table{Title: f.Title + " — " + f.YLabel + " vs " + f.XLabel, headers: header, rows: rows}
	return tb.Render(w)
}

// WriteCSV emits the same grid in CSV form, at full precision.
func (f *Figure) WriteCSV(w io.Writer) error {
	header, rows := f.grid("%g")
	for _, row := range append([][]string{header}, rows...) {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// newTable creates a table with a title.
func newTable(title string) *Table { return &Table{Title: title} }

// Header sets the column headers.
func (t *Table) Header(cols ...string) { t.headers = cols }

// Row appends a row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, wd := range widths {
			total += wd + 2
		}
		b.WriteString(strings.Repeat("-", total) + "\n")
	}
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatBytes renders a byte count with binary units.
func formatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// formatSeconds renders a duration in seconds with adaptive precision.
func formatSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.1f s", s)
	default:
		return fmt.Sprintf("%.0f ms", s*1000)
	}
}
