package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

var (
	testPipelineOnce sync.Once
	testPipeline     *Pipeline
	testPipelineErr  error
)

// sharedTestPipeline builds one tiny pipeline for all experiment tests.
func sharedTestPipeline(t *testing.T) *Pipeline {
	t.Helper()
	testPipelineOnce.Do(func() {
		testPipeline, testPipelineErr = Run(synth.DefaultConfig(99, 0.003))
	})
	if testPipelineErr != nil {
		t.Fatal(testPipelineErr)
	}
	return testPipeline
}

func TestRunPipeline(t *testing.T) {
	p := sharedTestPipeline(t)
	if !p.Store.Frozen() {
		t.Error("pipeline store not frozen")
	}
	if p.Store.NumEvents() == 0 {
		t.Error("no events generated")
	}
	// Ground truth must exist for a substantial share of files.
	labeled := 0
	files := p.Store.DownloadedFiles()
	for _, f := range files {
		if p.Store.Label(f) != dataset.LabelUnknown {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("labeling pipeline produced no ground truth")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	p := sharedTestPipeline(t)
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(p, &buf); err != nil {
				t.Fatalf("experiment %s failed: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("experiment %s produced no output", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table1"); err != nil {
		t.Error("table1 should exist")
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	// One experiment per table (I-XVII, minus the descriptive XV) and
	// per figure (1-6), plus packers and rule stats.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9", "table10", "table11", "table12",
		"table13", "table14", "table16", "table17",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"packers", "rulestats", "baselines", "evasion", "avtypestats", "chains",
	}
	have := map[string]bool{}
	for _, e := range All {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All), len(want))
	}
}

func TestTableIShape(t *testing.T) {
	p := sharedTestPipeline(t)
	var buf bytes.Buffer
	if err := TableI(p, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "overall") {
		t.Error("Table I missing overall row")
	}
	if !strings.Contains(out, "paper overall") {
		t.Error("Table I missing paper reference")
	}
}

func TestTableXVIIShape(t *testing.T) {
	p := sharedTestPipeline(t)
	var buf bytes.Buffer
	if err := TableXVII(p, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TP") || !strings.Contains(out, "FP") {
		t.Error("Table XVII missing TP/FP columns")
	}
	// Windows must cover the months (6 windows x 2 taus).
	if got := strings.Count(out, "->"); got < 6 {
		t.Errorf("Table XVII has %d window rows, want >= 6", got)
	}
}

func TestWindowsMemoized(t *testing.T) {
	p := sharedTestPipeline(t)
	if _, err := runWindows(p); err != nil {
		t.Fatal(err)
	}
	first := p.windows
	if _, err := runWindows(p); err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(p.windows) != len(first) {
		t.Error("windows not memoized")
	}
}
