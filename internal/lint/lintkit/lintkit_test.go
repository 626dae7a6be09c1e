package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseAllowComment(t *testing.T) {
	cases := []struct {
		text             string
		analyzer, reason string
		ok               bool
	}{
		{"//lint:allow errwrap the wire format is flattened", "errwrap", "the wire format is flattened", true},
		{"//lint:allow errwrap", "errwrap", "", true},
		{"//lint:allow", "", "", true},
		{"//lint:allow errwrap // trailing marker", "errwrap", "", true},
		{"// a normal comment", "", "", false},
		{"//lint:ignore X Y", "", "", false},
	}
	for _, c := range cases {
		analyzer, reason, ok := parseAllowComment(&ast.Comment{Text: c.text})
		if analyzer != c.analyzer || reason != c.reason || ok != c.ok {
			t.Errorf("parseAllowComment(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, analyzer, reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

func TestAllowIndexScopes(t *testing.T) {
	src := `package p

//lint:allow alpha whole decl is exempt
func f() {
	_ = 1 //lint:allow beta same line
	//lint:allow gamma line above
	_ = 2
}

func g() {
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildAllowIndex(fset, []*ast.File{f})
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"alpha", 4, true}, // decl-wide from doc comment
		{"alpha", 8, true}, // still inside f's declaration
		{"alpha", 11, false} /* g is not covered */, {"beta", 5, true},
		{"beta", 7, false},
		{"gamma", 7, true}, // directive on the line above
		{"gamma", 5, false},
	}
	for _, c := range cases {
		got, reason := idx.allows(c.analyzer, "p.go", c.line)
		if got != c.want {
			t.Errorf("allows(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
		if got && reason == "" {
			t.Errorf("allows(%s, line %d) suppressed without a reason", c.analyzer, c.line)
		}
	}
}

func TestLangVersion(t *testing.T) {
	cases := map[string]string{
		"go1.24.0":     "go1.24",
		"go1.22":       "go1.22",
		"devel +abc":   "",
		"go1.24.0-foo": "go1.24",
	}
	for in, want := range cases {
		if got := langVersion(in); got != want {
			t.Errorf("langVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPathBase(t *testing.T) {
	cases := map[string]string{
		"repro/internal/serve": "serve",
		"serve":                "serve",
	}
	for in, want := range cases {
		if got := PathBase(in); got != want {
			t.Errorf("PathBase(%q) = %q, want %q", in, got, want)
		}
	}
}
