package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildBinary compiles the longtailvet binary into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "longtailvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building longtailvet: %v\n%s", err, out)
	}
	return bin
}

// expectedFindings is the exact diagnostic set the badmod fixture
// module must produce, as (file-position regexp, message regexp)
// pairs. The serve finding comes from the cross-package facts, whose
// positions carry no column, so its regexp only pins file and line.
var expectedFindings = []struct{ pos, msg string }{
	{`app/app\.go:\d+:\d+`, `error formatted with %v loses the error chain`},
	{`app/app\.go:\d+:\d+`, `comparing an error to sentinel ErrBusy with ==`},
	{`app/app\.go:\d+:\d+`, `time\.Sleep inside a loop is a hand-rolled retry/poll loop`},
	{`synth/gen\.go:\d+:\d+`, `time\.Now breaks seed-determinism`},
	{`synth/gen\.go:\d+:\d+`, `global math/rand\.Intn uses shared process state`},
	{`serve/serve\.go:\d+`, `metric longtail_Served_Total is not snake_case`},
}

// checkFindings asserts output contains exactly the expected set.
func checkFindings(t *testing.T, output string) {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(output, "\n") {
		if strings.Contains(line, ".go:") {
			lines = append(lines, line)
		}
	}
	for _, want := range expectedFindings {
		re := regexp.MustCompile(want.pos + `: .*` + want.msg)
		found := false
		for _, line := range lines {
			if re.MatchString(line) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing expected finding %q %q", want.pos, want.msg)
		}
	}
	if len(lines) != len(expectedFindings) {
		t.Errorf("got %d findings, want exactly %d:\n%s", len(lines), len(expectedFindings), output)
	}
}

// TestStandaloneMode runs the binary over the known-bad fixture
// module, asserting the exact diagnostic set and exit status 2.
func TestStandaloneMode(t *testing.T) {
	bin := buildBinary(t)
	badmod, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = badmod
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("standalone run: err = %v (stderr %q), want exit status 2", err, stderr.String())
	}
	checkFindings(t, stderr.String())
}

// TestJSONReport runs the binary with -json and checks the
// machine-readable report: every finding carries file/line/analyzer/
// message, and the fixture's //lint:allow site appears in the
// suppressed list with its documented reason — the audit trail CI
// archives as LINT_report.json.
func TestJSONReport(t *testing.T) {
	bin := buildBinary(t)
	badmod, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = badmod
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-json run: err = %v (stderr %q), want exit status 2", err, stderr.String())
	}
	var report struct {
		Findings []struct {
			File, Analyzer, Message, SuppressedBy string
			Line                                  int
		}
		Suppressed []struct {
			File, Analyzer, Message, SuppressedBy string
			Line                                  int
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("-json output is not a report document: %v\n%s", err, stdout.String())
	}
	if len(report.Findings) != len(expectedFindings) {
		t.Errorf("-json reported %d findings, want %d", len(report.Findings), len(expectedFindings))
	}
	for _, f := range report.Findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding missing a required field: %+v", f)
		}
		if f.SuppressedBy != "" {
			t.Errorf("active finding carries a suppression reason: %+v", f)
		}
	}
	found := false
	for _, s := range report.Suppressed {
		if s.Analyzer == "metricdrift" && strings.Contains(s.SuppressedBy, "legacy dashboard") {
			found = true
		}
	}
	if !found {
		t.Errorf("suppressed list missing the fixture's //lint:allow metricdrift site: %+v", report.Suppressed)
	}
}
