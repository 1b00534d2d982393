package campaign

import (
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tb := newTable("Demo", "A", "B")
	tb.add("x", "1")
	tb.add("longer", "2")
	var sb strings.Builder
	tb.writeMarkdown(&sb)
	out := sb.String()
	if !strings.Contains(out, "## Demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "| longer | 2 |") {
		t.Fatalf("markdown:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, blank, header, separator, 2 rows
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := newTable("", "A", "B")
	tb.add(`has,comma`, `has"quote`)
	var sb strings.Builder
	tb.writeCSV(&sb)
	if !strings.Contains(sb.String(), `"has,comma","has""quote"`) {
		t.Fatalf("csv: %s", sb.String())
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := newTable("", "A", "B")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.add("only one")
}

func TestFormatters(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{fmtF(1.5), "1.5"},
		{fmtF(2), "2"},
		{fmtF(0.12345), "0.1235"},
		{fmtPct(0.9917), "99.17%"},
		{fmtMB(2_500_000), "2.5 MB"},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Fatalf("got %q, want %q", tc.got, tc.want)
		}
	}
}

func TestSeriesRaggedLengths(t *testing.T) {
	var sb strings.Builder
	writeSeries(&sb, []string{"a", "b"}, map[string][]float64{
		"a": {1, 2, 3},
		"b": {9},
	})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %s", len(lines), sb.String())
	}
	if lines[0] != "index,a,b" || lines[1] != "0,1,9" || lines[3] != "2,3," {
		t.Fatalf("series:\n%s", sb.String())
	}
}
