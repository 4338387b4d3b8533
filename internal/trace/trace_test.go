package trace

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta", 2.5)
	text := tb.Text()
	if !strings.Contains(text, "== demo ==") {
		t.Fatalf("missing title:\n%s", text)
	}
	if !strings.Contains(text, "alpha") || !strings.Contains(text, "2.5") {
		t.Fatalf("missing cells:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), text)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, "x")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,x\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		2.5:     "2.5",
		0.0001:  "1.000e-04",
		1234567: "1234567",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatFloatBoundaries(t *testing.T) {
	cases := map[float64]string{
		// The integer fast path is gated on |v| < 1e15 (above that, float64
		// integers lose precision and %d would print a misleading exact
		// value), so exactly ±1e15 falls through to %.4g.
		1e15:  "1e+15",
		-1e15: "-1e+15",
		// Just inside the gate: still rendered as an exact integer.
		1e15 - 1:    "999999999999999",
		-(1e15 - 1): "-999999999999999",
		// The scientific-notation branch is v < 0.01 strictly, so exactly
		// 0.01 uses the %.4g path while values just below switch to %.3e.
		0.01:   "0.01",
		-0.01:  "-0.01",
		0.0099: "9.900e-03",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("esc", "field", "value")
	tb.AddRow("comma", "a,b")
	tb.AddRow("quote", `say "hi"`)
	tb.AddRow("newline", "line1\nline2")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "field,value\n" +
		"comma,\"a,b\"\n" +
		"quote,\"say \"\"hi\"\"\"\n" +
		"newline,\"line1\nline2\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestColumnAlignment(t *testing.T) {
	tb := NewTable("", "short", "x")
	tb.AddRow("longer-cell", 1)
	text := tb.Text()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	// Header and row should align: the second column starts at the same
	// offset in both lines.
	if idxHeader, idxRow := strings.Index(lines[0], "x"), strings.Index(lines[2], "1"); idxHeader != idxRow {
		t.Fatalf("misaligned columns:\n%s", text)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable("empty", "a")
	text := tb.Text()
	if !strings.Contains(text, "empty") {
		t.Fatal("title missing")
	}
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a\n" {
		t.Fatalf("CSV = %q", b.String())
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should yield empty string")
	}
	s := Sparkline([]int{0, 4, 8})
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("got %d runes", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("scaling wrong: %q", s)
	}
	// All-zero input must not divide by zero.
	if z := Sparkline([]int{0, 0}); []rune(z)[0] != '▁' {
		t.Fatalf("zero series wrong: %q", z)
	}
}

func TestDownsample(t *testing.T) {
	in := []int{1, 9, 2, 3, 8, 4}
	out := Downsample(in, 3)
	if len(out) != 3 {
		t.Fatalf("len %d", len(out))
	}
	// Max-pooling preserves peaks.
	if out[0] != 9 || out[2] != 8 {
		t.Fatalf("pooling wrong: %v", out)
	}
	// Short series pass through unchanged (copied).
	same := Downsample(in, 10)
	if len(same) != len(in) {
		t.Fatal("short series resized")
	}
	same[0] = 99
	if in[0] == 99 {
		t.Fatal("Downsample aliased its input")
	}
}

func TestDownsamplePanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 did not panic")
		}
	}()
	Downsample([]int{1}, 0)
}
