package campaign

// The table/series renderers behind the aggregate artifacts (markdown
// tables and CSV series).

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// table is a simple string table rendered as markdown or CSV.
type table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// newTable returns a table with the given title and column headers.
func newTable(title string, headers ...string) *table {
	return &table{Title: title, Headers: headers}
}

// add appends a row; the cell count must match the header count.
func (t *table) add(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("campaign: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// writeMarkdown renders the table with aligned pipes.
func (t *table) writeMarkdown(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	writeRow(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// writeCSV renders the table as comma-separated values (cells containing
// commas are quoted).
func (t *table) writeCSV(w io.Writer) {
	writeCSVRow(w, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		out[i] = c
	}
	fmt.Fprintln(w, strings.Join(out, ","))
}

// fmtF formats a float compactly (trailing zeros trimmed, 4 decimals).
func fmtF(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// fmtPct formats a fraction as a percentage with 2 decimals.
func fmtPct(v float64) string { return strconv.FormatFloat(100*v, 'f', 2, 64) + "%" }

// fmtMB formats a byte count as megabytes.
func fmtMB(bytes int64) string { return fmtF(float64(bytes)/1e6) + " MB" }

// writeSeries renders named float series as CSV: one column per series, one row
// per index (series may have different lengths; missing cells are empty).
func writeSeries(w io.Writer, names []string, series map[string][]float64) {
	writeCSVRow(w, append([]string{"index"}, names...))
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{strconv.Itoa(i)}
		for _, n := range names {
			s := series[n]
			if i < len(s) {
				row = append(row, fmtF(s[i]))
			} else {
				row = append(row, "")
			}
		}
		writeCSVRow(w, row)
	}
}
