// Package trace renders experiment output: fixed-width text tables for the
// terminal, CSV for downstream plotting, and sparklines for curves.
package trace

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Table is a simple column-aligned table with a title, assembled row by row
// and rendered to text or CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders floats compactly: integers without decimals, small
// values with enough precision to be meaningful.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if v != 0 && (v < 0.01 && v > -0.01) {
		return fmt.Sprintf("%.3e", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (headers first; the title is omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Text renders the table to a string.
func (t *Table) Text() string {
	var b strings.Builder
	if err := t.WriteText(&b); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}

// Sparkline renders a series of non-negative values as a compact unicode
// bar chart (▁▂▃▄▅▆▇█), scaled to the series maximum. Useful for showing a
// convergence curve in terminal output. Empty input yields an empty string.
func Sparkline(values []int) string {
	if len(values) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	maxVal := 0
	for _, v := range values {
		if v > maxVal {
			maxVal = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if v < 0 {
			v = 0
		}
		idx := 0
		if maxVal > 0 {
			idx = v * (len(bars) - 1) / maxVal
		}
		b.WriteRune(bars[idx])
	}
	return b.String()
}

// Downsample reduces a series to at most width points by max-pooling
// consecutive buckets, preserving peaks (for sparklines and the metrics
// summary's curves). A series of at most width points is copied as is.
func Downsample[T cmp.Ordered](values []T, width int) []T {
	if width <= 0 {
		panic("trace: Downsample width must be positive")
	}
	if len(values) <= width {
		return append([]T(nil), values...)
	}
	out := make([]T, width)
	for i := range out {
		lo := i * len(values) / width
		hi := max((i+1)*len(values)/width, lo+1)
		out[i] = slices.Max(values[lo:hi])
	}
	return out
}
