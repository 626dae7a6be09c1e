package experiments

import (
	"fmt"
	"io"

	"repro/internal/polonium"
	"repro/internal/report"
	"repro/internal/urlrep"
)

// Baselines compares the paper's rule-based classifier against the two
// system families its related-work section positions it against:
// Polonium-style machine-file graph propagation (which "does not work on
// files seen on single machines") and CAMP/Amico-style download-source
// reputation (which the mixed-reputation hosting domains of Section IV-B
// confuse). All three run on the same first train/test window.
func Baselines(p *Pipeline, w io.Writer) error {
	months := p.Store.Months()
	if len(months) < 2 {
		return fmt.Errorf("experiments: need two months for baselines")
	}
	trainIdx := p.Store.EventIndexesInMonth(months[0])
	testIdx := p.Store.EventIndexesInMonth(months[1])

	// Rule-based classifier (this paper).
	world, err := p.ServingWorld(0.001)
	if err != nil {
		return err
	}
	testInsts, err := world.Instances(1)
	if err != nil {
		return err
	}
	ruleEval := world.Rules.Evaluate(testInsts)

	// Polonium-style graph propagation.
	graph, err := polonium.Run(p.Store, trainIdx, polonium.DefaultConfig())
	if err != nil {
		return err
	}
	buckets := polonium.Evaluate(p.Store, graph, testIdx, 0.62)

	// URL-reputation baseline.
	urlModel, err := urlrep.Train(p.Store, trainIdx, 3)
	if err != nil {
		return err
	}
	urlEval := urlrep.Evaluate(p.Store, urlModel, testIdx, 0.5)

	tbl := report.NewTable("Baseline comparison (first train/test window)",
		"system", "scope", "TP", "FP", "notes")
	tbl.AddRow("rule-based (this paper)",
		fmt.Sprintf("%s matched files", report.Count(ruleEval.MatchedMalicious+ruleEval.MatchedBenign)),
		report.Pct2(ruleEval.TPRate()), report.Pct2(ruleEval.FPRate()),
		fmt.Sprintf("%d rejected for conflicts", ruleEval.Rejected))
	for _, b := range buckets {
		tbl.AddRow("polonium-style graph", b.Bucket+
			fmt.Sprintf(" (%s mal files)", report.Count(b.Malicious)),
			report.Pct2(b.DetectionRate()), report.Pct2(b.FPRate()), "belief propagation, threshold 0.62")
	}
	tbl.AddRow("URL reputation (CAMP/Amico-like)",
		fmt.Sprintf("%s judged files", report.Count(urlEval.Judged)),
		report.Pct2(urlEval.TPRate()), report.Pct2(urlEval.FPRate()),
		fmt.Sprintf("%d errors on mixed-reputation domains", urlEval.MixedDomainErrors))
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "paper's positioning: Polonium reports 48%% detection at prevalence 2-3 and none at prevalence 1 (94%% of its dataset); URL-reputation systems suffer from domains serving both benign and malicious files; the rule classifier handles low-prevalence files because its features are intrinsic to the file and its delivery context\n\n")
	return nil
}
