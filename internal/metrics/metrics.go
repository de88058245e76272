// Package metrics provides the result containers and text/CSV rendering
// used by the experiment harness: accuracy curves per strategy, epoch-time
// breakdowns, and aligned tables matching the rows/series of the paper's
// figures.
package metrics

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

// Last returns the final y value (0 if empty).
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// Max returns the maximum y value (0 if empty).
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.Y {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Figure is a named collection of series (one per strategy, typically).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Lookup returns the series with the given name, or nil.
func (f *Figure) Lookup(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Render writes the figure as an aligned text table: one row per x value,
// one column per series — the closest text analogue of the paper's plots.
func (f *Figure) Render(w io.Writer) error {
	// Collect the union of x values across series.
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	tb := NewTable(f.Title + " — " + f.YLabel + " vs " + f.XLabel)
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	tb.Header(headers...)
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		tb.Row(row...)
	}
	return tb.Render(w)
}

// WriteCSV emits the same grid in CSV form.
func (f *Figure) WriteCSV(w io.Writer) error {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%g", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(x float64) string {
	return fmt.Sprintf("%g", x)
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title.
func NewTable(title string) *Table { return &Table{Title: title} }

// Header sets the column headers.
func (t *Table) Header(cols ...string) { t.headers = cols }

// Row appends a row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the cell under header col in the first row whose first cell
// is key, and whether there is one.
func (t *Table) Cell(key, col string) (string, bool) {
	for c, h := range t.headers {
		if h != col {
			continue
		}
		for _, row := range t.rows {
			if len(row) > c && row[0] == key {
				return row[c], true
			}
		}
	}
	return "", false
}

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

// FormatBytes renders a byte count with binary units.
func FormatBytes(b int64) string {
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

// FormatSeconds renders a duration in seconds with adaptive precision.
func FormatSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.1f s", s)
	default:
		return fmt.Sprintf("%.0f ms", s*1000)
	}
}
