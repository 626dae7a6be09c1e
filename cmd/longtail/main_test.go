package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/serve"
)

// TestLongtailCLI builds the reproduction binary and drives the
// experiments (the registry listing, one selected experiment, an ID the
// registry does not hold, and -outdir) and every verb.
func TestLongtailCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the longtail binary and generates a corpus")
	}
	bin := filepath.Join(t.TempDir(), "longtail")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run feeds stdin and returns stdout, stderr and the exit code.
	run := func(stdin string, args ...string) (string, string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(stdin), &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("longtail %v: %v", args, err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}

	// Every registered experiment renders one of the paper's artifacts
	// from the pipeline; the chaos scenarios are go tests, not entries.
	out, _, code := run("", "-list")
	ids := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(ids) != 28 {
		t.Errorf("-list: exit %d, %d lines, want 0 and 28:\n%s", code, len(ids), out)
	}
	for _, line := range ids {
		if strings.HasPrefix(line, "chaos") {
			t.Errorf("-list still offers %q", line)
		}
	}

	outdir := filepath.Join(t.TempDir(), "out")
	out, stderr, code := run("", "-only", "table1", "-scale", "0.003", "-outdir", outdir)
	if code != 0 {
		t.Fatalf("-only table1: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(out, "paper overall") {
		t.Errorf("-only table1 printed no paper reference row:\n%s", out)
	}
	written, err := os.ReadFile(filepath.Join(outdir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) == 0 || !strings.Contains(out, string(written)) {
		t.Errorf("table1.txt is not the table printed to stdout:\n%s", written)
	}

	_, stderr, code = run("", "-only", "chaos-serve")
	if code != 1 || !strings.Contains(stderr, `unknown experiment "chaos-serve"`) {
		t.Errorf("-only chaos-serve: exit %d, stderr %q; want 1 naming the unknown experiment", code, stderr)
	}

	// gendata's file reads back through analyze; an -o that cannot be
	// created or written fails naming it.
	dataset, rules := filepath.Join(outdir, "ds.jsonl"), filepath.Join(outdir, "rules.json")
	if _, stderr, code := run("", "gendata", "-scale", "0.003", "-o", dataset); code != 0 {
		t.Fatalf("gendata: exit %d\n%s", code, stderr)
	}
	if out, stderr, code := run("", "analyze", dataset); code != 0 || !strings.HasPrefix(out, "loaded ") {
		t.Errorf("analyze: exit %d\n%s%s", code, out, stderr)
	}
	for _, path := range []string{"/nonexistent/x.jsonl", "/dev/full"} {
		if _, stderr, code := run("", "gendata", "-scale", "0.003", "-o", path); code != 1 || !strings.Contains(stderr, path) {
			t.Errorf("gendata -o %s: exit %d, stderr %q; want 1 naming the path", path, code, stderr)
		}
	}

	// rulemine's JSON loads as a daemon loads it, with the rule count its
	// text mode prints.
	if _, stderr, code := run("", "rulemine", "-scale", "0.003", "-json", "-o", rules); code != 0 {
		t.Fatalf("rulemine -json: exit %d\n%s", code, stderr)
	}
	clf, err := serve.LoadRulesFile(rules, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, _ = run("", "rulemine", "-scale", "0.003"); !strings.Contains(out, fmt.Sprintf("; %d selected at", len(clf.Rules))) {
		t.Errorf("rulemine text mode does not select the %d rules -json wrote:\n%s", len(clf.Rules), out)
	}

	// The paper's Zbot labels through both label tools.
	const zbot = `{"Symantec":"Trojan.Zbot","McAfee":"Downloader-FYH!6C7411D1C043","Kaspersky":"Trojan-Spy.Win32.Zbot.ruxa","Microsoft":"PWS:Win32/Zbot"}`
	for _, args := range [][]string{{"avtype"}, {"avclass"}, {"avclass", "-aliases"}} {
		want := map[string]string{"avtype": "banker\tvoting\n", "avclass": "zbot\t3\n"}[args[0]]
		if out, stderr, code := run(zbot+"\n", args...); code != 0 || out != want {
			t.Errorf("%v: exit %d, stdout %q, want %q\n%s", args, code, out, want, stderr)
		}
	}

	if _, stderr, code := run("", "frob"); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("unknown verb: exit %d, stderr %q; want 2 with the usage", code, stderr)
	}
}
