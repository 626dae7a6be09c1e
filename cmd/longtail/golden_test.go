package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/export"
)

// The corpus `longtail gendata -seed 42 -scale 0.002` writes, byte for
// byte, and the prevalence Freeze derives for every file of it. A change
// to generation, labeling or Freeze that moves either digest changes
// every table the reproduction prints; one that only makes them faster
// leaves both as they are.
const (
	goldenCorpusSHA256     = "60766148b03eaa934a3bc5290862d92d662346ecebc946391338e7f1ecb730ac"
	goldenPrevalenceSHA256 = "f4908ba0a97768fd342ab7578016dee171fc253adfc0bc21b957c93e39281afe"
)

func TestGendataGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	fs := flag.NewFlagSet("gendata", flag.ContinueOnError)
	if err := genData(fs, []string{"-seed", "42", "-scale", "0.002", "-o", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != goldenCorpusSHA256 {
		t.Errorf("gendata output sha256 %x, want %s", got, goldenCorpusSHA256)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, _, err := export.ReadStoreWithOracle(f)
	if err != nil {
		t.Fatal(err)
	}
	store.Freeze()
	files := store.DownloadedFiles()
	slices.Sort(files)
	h := sha256.New()
	for _, file := range files {
		fmt.Fprintf(h, "%s %d\n", file, store.Prevalence(file))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPrevalenceSHA256 {
		t.Errorf("per-file prevalence sha256 %s over %d files, want %s", got, len(files), goldenPrevalenceSHA256)
	}
}
