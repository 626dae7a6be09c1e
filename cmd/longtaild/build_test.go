package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestServingBuild holds what a bare daemon boots on to what the full
// pipeline builds from the same seed and scale: the compiled context's
// sizes and the rule set, byte for byte, for each way the daemon can be
// started without -dataset, and with -lifecycle the same ground truth
// for every file. It also holds the daemon to labeling only what it
// reads: nothing with -rules, the first month's files and processes
// when it trains, every file with -lifecycle, each with the label the
// full pipeline gives it.
func TestServingBuild(t *testing.T) {
	ref, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := ref.Extractor.ContextStats()
	wantRules := exportRules(t, ref.Rules)
	rulesPath := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(rulesPath, wantRules, 0o644); err != nil {
		t.Fatal(err)
	}

	// named is the set of files and processes the events name.
	named := func(events []dataset.DownloadEvent) map[dataset.FileHash]bool {
		set := make(map[dataset.FileHash]bool)
		for _, e := range events {
			set[e.File], set[e.Process] = true, true
		}
		return set
	}
	for _, tc := range []struct {
		name      string
		rules     string
		lifecycle bool
		labeled   map[dataset.FileHash]bool
	}{
		{"trained", "", false, named(ref.Month(0))},
		{"rules", rulesPath, false, nil},
		{"lifecycle", "", true, named(ref.Store.Events())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bs bootStats
			store, _, err := loadStore("", testSeed, testScale, tc.rules == "", tc.lifecycle, &bs)
			if err != nil {
				t.Fatal(err)
			}
			if bs.labeled != len(tc.labeled) {
				t.Errorf("labeled %d files, want %d", bs.labeled, len(tc.labeled))
			}
			for _, h := range ref.Store.Files() {
				want := dataset.GroundTruth{}
				if tc.labeled[h] {
					want = ref.Store.Truth(h)
				}
				if got := store.Truth(h); got != want {
					t.Fatalf("truth of %s: %+v, want %+v", h, got, want)
				}
			}

			ex, clf, truth, err := loadContext("", tc.rules, testSeed, testScale, testTau, tc.lifecycle)
			if err != nil {
				t.Fatal(err)
			}
			if got := ex.ContextStats(); got != wantStats {
				t.Errorf("context %+v, want %+v", got, wantStats)
			}
			if got := exportRules(t, clf); !bytes.Equal(got, wantRules) {
				t.Errorf("rule set differs from the pipeline's:\n got %s\nwant %s", got, wantRules)
			}
			if (truth != nil) != tc.lifecycle {
				t.Fatalf("ground truth present %v, want %v", truth != nil, tc.lifecycle)
			}
			if truth == nil {
				return
			}
			refTruth := storeTruth(ref.Store)
			for _, h := range ref.Store.Files() {
				gotMal, gotOK := truth(h)
				wantMal, wantOK := refTruth(h)
				if gotMal != wantMal || gotOK != wantOK {
					t.Fatalf("truth of %s: (%v, %v), want (%v, %v)", h, gotMal, gotOK, wantMal, wantOK)
				}
			}
		})
	}
}

func exportRules(t *testing.T, clf *classify.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.ExportRules(&buf, clf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkServingBuild is a bare daemon's boot up to its first
// listener: generate the default corpus, label the first month, compile
// the serving context and train the rule set.
func BenchmarkServingBuild(b *testing.B) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := loadContext("", "", 42, 0.02, 0.001, false); err != nil {
			b.Fatal(err)
		}
	}
}
