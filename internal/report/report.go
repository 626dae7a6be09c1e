// Package report renders fixed-width text tables and CDF sketches for
// the experiment harness output.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells are
// kept and widen the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	cell := func(row []string, i int) string {
		if i < len(row) {
			return row[i]
		}
		return ""
	}
	for i := 0; i < cols; i++ {
		if i < len(t.headers) && len(t.headers[i]) > widths[i] {
			widths[i] = len(t.headers[i])
		}
		for _, r := range t.rows {
			if n := len(cell(r, i)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell(row, i))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Pct2 formats a ratio as a percentage with two decimals.
func Pct2(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Count formats an integer with thousands separators.
func Count(n int) string {
	s := fmt.Sprint(n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}

// RenderCDF writes an ASCII sketch of a CDF: one line per sample point
// with a bar proportional to the cumulative fraction.
func RenderCDF(w io.Writer, title string, cdf *stats.CDF, points int, format func(x float64) string) error {
	if format == nil {
		format = func(x float64) string { return fmt.Sprintf("%8.2f", x) }
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", title, cdf.Len())
	for _, pt := range cdf.Points(points) {
		bar := strings.Repeat("#", int(pt[1]*40))
		fmt.Fprintf(&b, "  %s | %-40s %5.1f%%\n", format(pt[0]), bar, 100*pt[1])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
