package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLongtailCLI builds the reproduction binary and drives its four
// ways in: the registry listing, one selected experiment, an ID the
// registry does not hold, and -outdir.
func TestLongtailCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the longtail binary and generates a corpus")
	}
	bin := filepath.Join(t.TempDir(), "longtail")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns stdout, stderr and the exit code.
	run := func(args ...string) (string, string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("longtail %v: %v", args, err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}

	// Every registered experiment renders one of the paper's artifacts
	// from the pipeline; the chaos scenarios are go tests, not entries.
	out, _, code := run("-list")
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
	out, stderr, code := run("-only", "table1", "-scale", "0.003", "-outdir", outdir)
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

	_, stderr, code = run("-only", "chaos-serve")
	if code != 1 || !strings.Contains(stderr, `unknown experiment "chaos-serve"`) {
		t.Errorf("-only chaos-serve: exit %d, stderr %q; want 1 naming the unknown experiment", code, stderr)
	}
}
