// Package lintkittest is the analysistest counterpart for lintkit
// analyzers: it loads a fixture package from a testdata directory,
// runs analyzers over it, and compares the findings against `// want`
// comment expectations in the fixture sources.
//
// Expectation syntax, at the end of the offending line:
//
//	code() // want `substring or regexp`
//
// Multiple expectations on one line are allowed (repeat the marker).
// Every finding must match a want on its line and every want must be
// matched by a finding — both directions are errors, so fixtures pin
// the analyzer's exact diagnostic set.
package lintkittest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint/lintkit"
)

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// Run loads the package rooted at dir (a directory containing one Go
// package, e.g. "testdata/src/determinism/synth", with its _test.go
// files) and asserts the analyzers' findings match the fixture's want
// comments. It returns the result for tests that inspect the findings
// or the suppressed sites further.
func Run(t *testing.T, dir string, analyzers ...*lintkit.Analyzer) *lintkit.Result {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lintkit.Load(abs, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no package loaded", dir)
	}
	res, err := lintkit.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	checkWants(t, abs, res.Diags)
	return res
}

// wantKey identifies one expectation site.
type wantKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkWants scans every .go file under dir for want comments and
// cross-checks them against diags.
func checkWants(t *testing.T, dir string, diags []lintkit.Diagnostic) {
	t.Helper()
	wants := make(map[wantKey][]*want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				key := wantKey{file: path, line: i + 1}
				wants[key] = append(wants[key], &want{re: re, raw: m[1]})
			}
		}
	}
	for _, d := range diags {
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	var keys []wantKey
	for k := range wants {
		keys = append(keys, k)
	}
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: expected finding matching `%s`, got none", k.file, k.line, w.raw)
			}
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Logf("all findings:\n%s", strings.Join(all, "\n"))
	}
}

// MustFind asserts at least one finding from analyzer matches pattern.
func MustFind(t *testing.T, diags []lintkit.Diagnostic, analyzer, pattern string) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for _, d := range diags {
		if d.Analyzer == analyzer && re.MatchString(d.Message) {
			return
		}
	}
	t.Errorf("no %s finding matching %q; findings: %s", analyzer, pattern, fmt.Sprint(diags))
}
