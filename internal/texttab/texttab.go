// Package texttab renders aligned text tables — the shared formatter
// behind cmd/nabexp (tables, sim, cap) and tools/nabtrace, so
// EXPERIMENTS.md rows and tool output are regenerated identically
// everywhere. (It was historically named internal/trace, which clashed
// with execution tracing; the flight recorder owns that word now.)
package texttab

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New returns a table with the given title and column header.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cell counts need not match the header (short rows are
// padded on render).
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row built from formatted values.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = F(v)
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		case uint:
			row[i] = strconv.FormatUint(uint64(v), 10)
		case bool:
			row[i] = strconv.FormatBool(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
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
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// F formats a float compactly (4 significant decimals, trailing zeros
// trimmed).
func F(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(v float64) string {
	return strconv.FormatFloat(100*v, 'f', 1, 64) + "%"
}
