package experiments

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/classify"
	"repro/internal/features"
	"repro/internal/report"
)

// Evasion quantifies the paper's Section VII discussion: "malware
// developers could change signer information by acquiring new signing
// certificates... valid certificates are not cheap". We rotate the
// signer identity of a growing fraction of malicious test files to
// fresh, never-seen certificates and measure how the classifier's
// recall decays — and what residual coverage the non-signer features
// retain.
func Evasion(p *Pipeline, w io.Writer) error {
	world, err := p.ServingWorld(0.001)
	if err != nil {
		return err
	}
	test, err := world.Instances(1)
	if err != nil {
		return err
	}
	clf := world.Rules

	tbl := report.NewTable("Section VII: signer-rotation evasion",
		"rotated share", "matched malicious", "TP", "abstained malicious")
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		rotated := rotateSigners(test, q)
		res := clf.Evaluate(rotated)
		// Count malicious test files that no rule matched.
		abstained := 0
		for _, group := range classify.GroupByFile(rotated) {
			if !group[0].Malicious {
				continue
			}
			if v, _ := clf.ClassifyFile(group); v == classify.VerdictNone {
				abstained++
			}
		}
		tbl.AddRow(report.Pct(q),
			report.Count(res.MatchedMalicious), report.Pct2(res.TPRate()),
			report.Count(abstained))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "paper's argument: rotating to fresh certificates defeats signer rules but is expensive (certificates cost money and revocation burns them); note the classifier abstains rather than misclassifies, so evasion buys invisibility, not false negatives\n\n")
	return nil
}

// rotateSigners replaces the signer/CA of a deterministic fraction q of
// malicious files with fresh per-file identities.
func rotateSigners(in []features.Instance, q float64) []features.Instance {
	out := make([]features.Instance, len(in))
	copy(out, in)
	for i := range out {
		if !out[i].Malicious {
			continue
		}
		h := fnv.New32a()
		_, _ = h.Write([]byte(out[i].File))
		if float64(h.Sum32()%1000) < q*1000 {
			out[i].FileSigner = fmt.Sprintf("Fresh Cert Shell %s", out[i].File)
			out[i].FileCA = "certum code signing ca sha2"
		}
	}
	return out
}
