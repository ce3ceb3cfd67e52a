// Package report renders the reproduction's tables and figure series as
// aligned text and CSV, shared by the cmd tools and the benchmark harness
// so every experiment prints the same rows the paper reports.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are Stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(row []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// RenderCSV writes the table as CSV (no quoting; experiment values never
// contain commas).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat renders a float compactly: 3 significant-ish decimals for
// small magnitudes, fewer for large ones.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case av >= 10:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case av >= 0.1:
		return strconv.FormatFloat(v, 'f', 2, 64)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

// Series is a named sequence of (label, value) points — one figure line.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point.
func (s *Series) Add(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Figure is a titled set of series sharing labels.
type Figure struct {
	Title  string
	Series []*Series
}

// Render writes the figure as one table: labels down, series across.
func (f *Figure) Render(w io.Writer) {
	t := Table{Title: f.Title, Header: []string{""}}
	for _, s := range f.Series {
		t.Header = append(t.Header, s.Name)
	}
	if len(f.Series) == 0 {
		t.Render(w)
		return
	}
	base := f.Series[0]
	for i, lbl := range base.Labels {
		row := []string{lbl}
		for _, s := range f.Series {
			if i < len(s.Values) {
				row = append(row, FormatFloat(s.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Render(w)
}
