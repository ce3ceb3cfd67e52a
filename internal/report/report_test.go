package report

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"name", "value"}}
	tab.AddRow("a", 1.5)
	tab.AddRow("longer", 10.25)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "T\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Header and separator align with the widest cell.
	if !strings.Contains(lines[2], "------") {
		t.Fatalf("separator missing: %q", lines[2])
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}}
	tab.AddRow("x", 2.0)
	var sb strings.Builder
	tab.RenderCSV(&sb)
	want := "a,b\nx,2.00\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestAddRowTypes(t *testing.T) {
	tab := Table{Header: []string{"a", "b", "c", "d"}}
	tab.AddRow("s", 42, 1.5, float32(2.5))
	row := tab.Rows[0]
	if row[0] != "s" || row[1] != "42" || row[2] != "1.50" || row[3] != "2.50" {
		t.Fatalf("row = %v", row)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234.6:  "1235",
		42.25:   "42.2",
		3.14159: "3.14",
		0.0123:  "0.0123",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFigureRender(t *testing.T) {
	a := &Series{Name: "A"}
	a.Add("x1", 1)
	a.Add("x2", 2)
	b := &Series{Name: "B"}
	b.Add("x1", 3)
	b.Add("x2", 4)
	fig := Figure{Title: "Fig", Series: []*Series{a, b}}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Fig", "A", "B", "x1", "x2", "3.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	var sb strings.Builder
	(&Figure{Title: "E"}).Render(&sb)
	if !strings.Contains(sb.String(), "E") {
		t.Fatalf("empty figure lost its title")
	}
}
