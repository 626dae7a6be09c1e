package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/lintkit"
)

// Metricdrift keeps the longtail_* metric namespace coherent. The
// exposition surface is the repo's observable contract — dashboards
// and the paper's tables key on exact metric names — so every name a
// package emits (collected into the cross-package facts from its
// string literals) must:
//
//   - be snake_case: lowercase, digits, single underscores;
//   - be spelled exactly one way tree-wide: two names that differ only
//     in word segmentation or case (longtail_requests_total vs
//     longtail_request_stotal) are drift, and every undocumented
//     spelling of the pair is flagged;
//   - appear in the metric documentation (metricDocs: DESIGN.md and
//     README.md at the module root).
//     Histogram series suffixes (_bucket, _sum, _count) resolve to
//     their base name first.
//
// Checks run in that severity order, one finding per name. Test files
// never contribute names. When no documentation file can be read the
// documentation check is skipped rather than failing every metric.
var Metricdrift = &lintkit.Analyzer{
	Name: "metricdrift",
	Doc:  "longtail_* metric names must be snake_case, uniquely spelled tree-wide, and documented",
	Run:  runMetricdrift,
}

// metricDocs lists the metric documentation files, comma-separated and
// relative to the module root unless absolute. A variable only so the
// fixtures' tests can point it at their own METRICS.md.
var metricDocs = "DESIGN.md,README.md"

// metricSnakeRE is the canonical shape: words of lowercase letters and
// digits joined by single underscores.
var metricSnakeRE = regexp.MustCompile(`^longtail(_[a-z0-9]+)+$`)

func runMetricdrift(pass *lintkit.Pass) error {
	own := pass.OwnFacts()
	if own == nil || len(own.Metrics) == 0 {
		return nil
	}
	spellings := collectSpellings(pass.Facts)
	docs := loadMetricDocs(metricDocs, own.Metrics[0].File)
	for _, m := range own.Metrics {
		base := histogramBase(m.Name)
		documented := docs != nil && (docs[m.Name] || docs[base])
		switch {
		case !metricSnakeRE.MatchString(m.Name):
			pass.ReportPosition(m.File, m.Line,
				"metric %s is not snake_case; exposition names are lowercase words joined by single underscores", m.Name)
		case driftsAgainst(m.Name, spellings, docs) != "":
			pass.ReportPosition(m.File, m.Line,
				"metric %s conflicts with spelling %s elsewhere in the tree; one canonical spelling per metric",
				m.Name, driftsAgainst(m.Name, spellings, docs))
		case docs != nil && !documented:
			pass.ReportPosition(m.File, m.Line,
				"metric %s is not documented in %s; every exposition name needs a doc-table entry",
				m.Name, metricDocs)
		}
	}
	return nil
}

// collectSpellings maps each normalized metric key (case and
// underscores stripped) to every distinct spelling seen tree-wide.
func collectSpellings(facts *lintkit.FactSet) map[string][]string {
	out := make(map[string][]string)
	if facts == nil {
		return out
	}
	seen := make(map[string]bool)
	var paths []string
	for p := range facts.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		for _, m := range facts.Pkgs[p].Metrics {
			name := histogramBase(m.Name)
			if seen[name] {
				continue
			}
			seen[name] = true
			key := normalizeMetric(name)
			out[key] = append(out[key], name)
		}
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out
}

// driftsAgainst returns a conflicting spelling of name, or "". The
// documented spelling of a pair is canonical: it is exempt when its
// rival is undocumented, so only the drifted copy gets flagged.
func driftsAgainst(name string, spellings map[string][]string, docs map[string]bool) string {
	base := histogramBase(name)
	for _, other := range spellings[normalizeMetric(base)] {
		if other == base {
			continue
		}
		if docs != nil && docs[base] && !docs[other] {
			continue
		}
		return other
	}
	return ""
}

// normalizeMetric reduces a metric name to its drift-equivalence key.
func normalizeMetric(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "_", ""))
}

// histogramBase strips the per-series suffixes a histogram exposition
// adds to its base name.
func histogramBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// loadMetricDocs reads the documented metric names from the
// comma-separated doc files. Relative paths resolve against the module root found by
// walking up from anchorFile. Returns nil when nothing was readable.
func loadMetricDocs(docFiles, anchorFile string) map[string]bool {
	root := moduleRoot(filepath.Dir(anchorFile))
	var docs map[string]bool
	for _, p := range strings.Split(docFiles, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !filepath.IsAbs(p) {
			if root == "" {
				continue
			}
			p = filepath.Join(root, p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if docs == nil {
			docs = make(map[string]bool)
		}
		for _, name := range metricDocNameRE.FindAllString(string(data), -1) {
			docs[name] = true
		}
	}
	return docs
}

// metricDocNameRE matches metric names in documentation prose/tables.
var metricDocNameRE = regexp.MustCompile(`longtail_[A-Za-z0-9_]+`)

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
