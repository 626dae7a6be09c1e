// Operational demonstrates how the system runs in production, per the
// paper's Section VI-D ("rules generated based on past events are used
// to classify new, unknown events in the future"):
//
//  1. train on a month of labeled telemetry,
//  2. export the rule set as JSON (the artifact a threat analyst
//     reviews — and can edit),
//  3. reload the reviewed rule set into a fresh classifier,
//  4. stream the next month's downloads through it, labeling unknowns
//     as they arrive.
//
// Run with:
//
//	go run ./examples/operational
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := experiments.Run(synth.DefaultConfig(31, 0.008))
	if err != nil {
		return err
	}
	months := p.Store.Months()
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return err
	}

	// 1. Train.
	train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
	if err != nil {
		return err
	}
	clf, err := classify.Train(train, 0.001, classify.Reject)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %s: %d rules selected\n", months[0], len(clf.Rules))

	// 2. Export for analyst review (here: an in-memory buffer; on disk
	// this is `longtail rulemine -json -o rules.json`).
	var ruleFile bytes.Buffer
	if err := serve.ExportRules(&ruleFile, clf); err != nil {
		return err
	}
	fmt.Printf("exported rule set: %d bytes of reviewable JSON\n", ruleFile.Len())

	// 3. Reload the (possibly analyst-edited) rules through the serving
	// layer's rule loader — the same path `longtaild -rules` and
	// /admin/reload use in production.
	deployed, err := serve.LoadRules(&ruleFile, classify.Reject)
	if err != nil {
		return err
	}

	// 4. Stream the next month's unknown downloads through the deployed
	// classifier, event by event, as a production deployment would.
	events := p.Store.Events()
	labeled, seen := 0, map[string]bool{}
	for _, idx := range p.Store.EventIndexesInMonth(months[1]) {
		ev := &events[idx]
		if p.Store.Label(ev.File) != dataset.LabelUnknown || seen[string(ev.File)] {
			continue
		}
		seen[string(ev.File)] = true
		vec, err := ex.Vector(ev)
		if err != nil {
			return err
		}
		inst := features.Instance{Vector: vec, File: ev.File}
		verdict, matched := deployed.ClassifyFile([]features.Instance{inst})
		if verdict == classify.VerdictMalicious || verdict == classify.VerdictBenign {
			labeled++
			if labeled <= 3 {
				fmt.Printf("  %s -> %s (rule: %s)\n", ev.File, verdict,
					deployed.Rules[matched[0]].String())
			}
		}
	}
	fmt.Printf("streamed %s: labeled %d of %d previously-unknown files on arrival\n",
		months[1], labeled, len(seen))
	return nil
}
