package lintkit

import (
	"go/ast"
	"strings"
	"testing"
)

// FuzzParseAllowDirective hammers the //lint:allow parser with
// arbitrary comment text: it must never panic, and its contract holds
// on everything it recognizes. ok means "this comment is a lint:allow
// directive" — a malformed one (missing analyzer or reason) still
// parses, because the checker turns those into findings rather than
// silently ignoring them; but a reason never appears without an
// analyzer, non-directives never leak fields, and the embedded-"//"
// truncation never survives into either field.
func FuzzParseAllowDirective(f *testing.F) {
	f.Add("//lint:allow determinism seeded clock drives the replay")
	f.Add("//lint:allow lockorder")
	f.Add("//lint:allow  metricdrift  reason with  spaces // trailing note")
	f.Add("// lint:allow determinism space breaks the directive")
	f.Add("//lint:allow")
	f.Add("/*lint:allow block comments are not directives*/")
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, ok := parseAllowComment(&ast.Comment{Text: text})
		if !ok {
			if analyzer != "" || reason != "" {
				t.Fatalf("rejected comment %q leaked fields %q/%q", text, analyzer, reason)
			}
			return
		}
		if !strings.HasPrefix(text, "//lint:allow") {
			t.Fatalf("accepted comment %q without the directive prefix", text)
		}
		if analyzer == "" && reason != "" {
			t.Fatalf("directive %q produced a reason %q with no analyzer", text, reason)
		}
		if strings.Contains(analyzer, "//") || strings.Contains(reason, "//") {
			t.Fatalf("directive %q kept an embedded comment: %q / %q", text, analyzer, reason)
		}
	})
}
