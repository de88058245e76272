package metrics

import (
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Last() != 0 || s.Max() != 0 {
		t.Fatal("empty series accessors wrong")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.9)
	s.Add(3, 0.7)
	if s.Last() != 0.7 {
		t.Fatalf("Last = %v", s.Last())
	}
	if s.Max() != 0.9 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("Fig 5(a)", "epoch", "top-1 acc")
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
	if f.Lookup("global") != g || f.Lookup("nope") != nil {
		t.Fatal("Lookup wrong")
	}
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("f", "x", "y")
	a := f.AddSeries("a")
	a.Add(1, 2)
	a.Add(3, 4)
	b := f.AddSeries("b")
	b.Add(1, 5)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,2,5" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "3,4," {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("Title")
	tb.Header("name", "value")
	tb.Row("short", "1")
	tb.Row("a-much-longer-name", "22")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
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
	tb := NewTable("Title")
	tb.Header("name", "value")
	tb.Row("a", "1")
	tb.Row("b", "2")
	if v, ok := tb.Cell("b", "value"); !ok || v != "2" {
		t.Fatalf("Cell(b, value) = %q, %v", v, ok)
	}
	for _, k := range [][2]string{{"c", "value"}, {"a", "other"}} {
		if v, ok := tb.Cell(k[0], k[1]); ok {
			t.Fatalf("Cell(%s, %s) = %q, want none", k[0], k[1], v)
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
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
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
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}
