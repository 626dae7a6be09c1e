// Package serve is the online verdict-serving subsystem: a long-running
// classification service that ingests download events at feed scale,
// extracts the Table XV features, and classifies each event with a
// tau-filtered rule set — the paper's Section VI-D operational mode
// ("rules generated based on past events are used to classify new,
// unknown events in the future") turned into a daemon.
//
// The subsystem is built from three pieces:
//
//   - Engine: a sharded worker pool with bounded ingest queues,
//     backpressure, graceful drain, and hot-swappable rule sets behind
//     an atomic pointer, so retraining never interrupts serving.
//   - Server: the HTTP surface (/classify, /admin/reload, /healthz,
//     /metrics) speaking internal/export's line-JSON wire format.
//   - Client: the matching request side, with retry/backoff on the
//     uplink path so internal/faults injectors can decorate it.
//
// Everything on the classification path is deterministic: a streamed
// verdict is byte-identical to what offline classify.ClassifyFile
// produces for the same event, which `go run ./bench` and
// cmd/longtailrouter's TestRouterOverDaemons verify end to end.
package serve

import (
	"fmt"
	"io"
	"os"

	"repro/internal/classify"
	"repro/internal/part"
)

// LoadRules reads a JSON rule set as `longtail rulemine -json` writes
// it (the artifact an analyst reviews and edits) and builds a
// deployable classifier from it.
// This is the single reload path shared by cmd/longtaild's -rules flag,
// the /admin/reload endpoint and examples/operational.
func LoadRules(r io.Reader, policy classify.ConflictPolicy) (*classify.Classifier, error) {
	attrs, _ := classify.Schema()
	rules, err := part.DecodeRules(r, attrs)
	if err != nil {
		return nil, fmt.Errorf("serve: load rules: %w", err)
	}
	clf, err := classify.NewFromRules(rules, policy)
	if err != nil {
		return nil, fmt.Errorf("serve: load rules: %w", err)
	}
	return clf, nil
}

// LoadRulesFile is LoadRules over a file on disk.
func LoadRulesFile(path string, policy classify.ConflictPolicy) (*classify.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load rules: %w", err)
	}
	defer f.Close()
	return LoadRules(f, policy)
}

// ExportRules writes a classifier's selected rule set in the same JSON
// format LoadRules reads, closing the train -> review -> deploy loop:
// `longtail rulemine -json -o rules.json` and ExportRules produce
// identical artifacts.
func ExportRules(w io.Writer, clf *classify.Classifier) error {
	if clf == nil {
		return fmt.Errorf("serve: export rules: nil classifier")
	}
	return part.EncodeRules(w, clf.Rules)
}
