package experiments

import (
	"strings"
	"testing"
)

// lookup returns the figure's series with the given name, or nil.
func (f *Figure) lookup(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// cell returns the cell under header col in the first row whose first cell
// is key, and whether there is one.
func (t *Table) cell(key, col string) (string, bool) {
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

func TestSeriesBasics(t *testing.T) {
	var s Series
	if len(s.X) != 0 || len(s.Y) != 0 {
		t.Fatal("empty series has points")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.9)
	s.Add(3, 0.7)
	if len(s.X) != 3 || len(s.Y) != 3 {
		t.Fatalf("len X = %d, len Y = %d, want 3", len(s.X), len(s.Y))
	}
	if s.X[2] != 3 || s.Y[2] != 0.7 {
		t.Fatalf("last point = (%v, %v), want (3, 0.7)", s.X[2], s.Y[2])
	}
	if s.X[1] != 2 || s.Y[1] != 0.9 {
		t.Fatalf("middle point = (%v, %v), want (2, 0.9)", s.X[1], s.Y[1])
	}
}

func TestFigureRender(t *testing.T) {
	f := newFigure("Fig 5(a)", "epoch", "top-1 acc")
	g := f.AddSeries("global")
	l := f.AddSeries("local")
	g.Add(1, 0.10)
	g.Add(2, 0.30)
	l.Add(1, 0.08)
	l.Add(2, 0.25)
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 5(a)", "global", "local", "0.3", "0.25", "epoch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
	if f.lookup("global") != g || f.lookup("nope") != nil {
		t.Fatal("lookup wrong")
	}
}

// TestFigureCSV: the x column is the union of every series' x values,
// ascending, and a series with no point at an x leaves its cell empty.
func TestFigureCSV(t *testing.T) {
	f := newFigure("f", "x", "y")
	a := f.AddSeries("a")
	a.Add(3, 4)
	a.Add(1, 2)
	b := f.AddSeries("b")
	b.Add(1, 5)
	b.Add(2, 0.123456789)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{"x,a,b", "1,2,5", "2,,0.123456789", "3,4,"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := newTable("Title")
	tb.Header("name", "value")
	tb.Row("short", "1")
	tb.Row("a-much-longer-name", "22")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), b.String())
	}
	// The value column must start at the same offset in both data rows.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "22")
	if idx1 != idx2 {
		t.Fatalf("columns not aligned:\n%s", b.String())
	}
}

func TestTableCell(t *testing.T) {
	tb := newTable("Title")
	tb.Header("name", "value")
	tb.Row("a", "1")
	tb.Row("b", "2")
	if v, ok := tb.cell("b", "value"); !ok || v != "2" {
		t.Fatalf("cell(b, value) = %q, %v", v, ok)
	}
	for _, k := range [][2]string{{"c", "value"}, {"a", "other"}} {
		if v, ok := tb.cell(k[0], k[1]); ok {
			t.Fatalf("cell(%s, %s) = %q, want none", k[0], k[1], v)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:            "512 B",
		2048:           "2.0 KiB",
		140 << 30:      "140.0 GiB",
		8396 << 30:     "8.2 TiB",
		1 << 50:        "1.0 PiB",
		117*1024 + 512: "117.5 KiB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		142:  "142 s",
		19.6: "19.6 s",
		0.25: "250 ms",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}
