package experiments

import (
	"fmt"
	"io"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is a short stable identifier (e.g. "table1", "fig5").
	ID string
	// Name describes the experiment.
	Name string
	// Run renders the measured result (with paper reference values) to w.
	Run func(p *Pipeline, w io.Writer) error
}

// All lists every experiment in paper order.
var All = []Experiment{
	{ID: "table1", Name: "Table I: monthly summary of collected data", Run: TableI},
	{ID: "fig1", Name: "Figure 1: distribution of malware families (top 25)", Run: Figure1},
	{ID: "table2", Name: "Table II: breakdown of malicious files per type", Run: TableII},
	{ID: "fig2", Name: "Figure 2: prevalence of downloaded software files", Run: Figure2},
	{ID: "table3", Name: "Table III: domains with highest download popularity", Run: TableIII},
	{ID: "table4", Name: "Table IV: number of files served per domain", Run: TableIV},
	{ID: "table5", Name: "Table V: popular download domains per malicious type", Run: TableV},
	{ID: "fig3", Name: "Figure 3: Alexa ranks of domains hosting benign/malicious files", Run: Figure3},
	{ID: "packers", Name: "Section IV-C: packer usage", Run: PackerSection},
	{ID: "table6", Name: "Table VI: percentage of signed files", Run: TableVI},
	{ID: "table7", Name: "Table VII: common signers among malicious file types", Run: TableVII},
	{ID: "table8", Name: "Table VIII: top signers of different file types", Run: TableVIII},
	{ID: "table9", Name: "Table IX: top exclusive signers", Run: TableIX},
	{ID: "fig4", Name: "Figure 4: common signers between malicious and benign files", Run: Figure4},
	{ID: "table10", Name: "Table X: download behavior of benign processes", Run: TableX},
	{ID: "table11", Name: "Table XI: download behavior of benign browsers", Run: TableXI},
	{ID: "table12", Name: "Table XII: download behavior of malicious processes", Run: TableXII},
	{ID: "fig5", Name: "Figure 5: time delta to other-malware downloads", Run: Figure5},
	{ID: "fig6", Name: "Figure 6: Alexa ranks of domains hosting unknown files", Run: Figure6},
	{ID: "table13", Name: "Table XIII: top 10 download domains of unknown files", Run: TableXIII},
	{ID: "table14", Name: "Table XIV: unknown downloads per process category", Run: TableXIV},
	{ID: "table16", Name: "Table XVI: extracted rules per training window", Run: TableXVI},
	{ID: "table17", Name: "Table XVII: rule-based classifier evaluation", Run: TableXVII},
	{ID: "rulestats", Name: "Section VII: rule statistics and ground-truth expansion", Run: RuleStats},
	{ID: "baselines", Name: "Related work: rule classifier vs Polonium-style and URL-reputation baselines", Run: Baselines},
	{ID: "evasion", Name: "Section VII: signer-rotation evasion study", Run: Evasion},
	{ID: "avtypestats", Name: "Section II-C: AVType resolution-rule shares", Run: AVTypeStats},
	{ID: "chains", Name: "Extension: malicious download-chain depths", Run: Chains},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
