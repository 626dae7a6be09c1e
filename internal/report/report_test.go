package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Table I: demo", "name", "count")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-longer", "22")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I: demo", "name", "alpha", "beta-longer", "22"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("only-one")
	tbl.AddRow("x", "y", "extra")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "extra") {
		t.Error("extra cell dropped")
	}
}

func TestPctAndCount(t *testing.T) {
	if got := Pct(0.123); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct2(0.00321); got != "0.32%" {
		t.Errorf("Pct2 = %q", got)
	}
	cases := map[int]string{
		5: "5", 999: "999", 1000: "1,000", 1234567: "1,234,567",
		3073863: "3,073,863",
	}
	for n, want := range cases {
		if got := Count(n); got != want {
			t.Errorf("Count(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRenderCDF(t *testing.T) {
	cdf := stats.NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	var sb strings.Builder
	if err := RenderCDF(&sb, "deltas", cdf, 5, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "deltas (n=10)") {
		t.Errorf("missing title: %s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Errorf("missing terminal fraction: %s", out)
	}
}
