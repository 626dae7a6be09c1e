package lintkit

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
)

// Cross-package facts: the `longtail_*` metric literals each package
// emits. The loader summarizes every in-module package before analysis
// begins, so the one in-memory FactSet answers a tree-wide question
// ("is this metric spelled another way elsewhere?") for the whole
// module.

// MetricUse is one `longtail_*` metric name occurrence in non-test code.
type MetricUse struct {
	Name string
	File string
	Line int
}

// PackageFacts is everything one package exports to downstream
// analysis.
type PackageFacts struct {
	Path    string
	Metrics []MetricUse
}

// FactSet is the union of facts visible to every analysis pass, built
// in memory for the whole module: one PackageFacts per non-standard
// package of the load, keyed by plain import path.
type FactSet struct {
	Pkgs map[string]*PackageFacts
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{Pkgs: make(map[string]*PackageFacts)}
}

// Add puts pf into the set.
func (fs *FactSet) Add(pf *PackageFacts) {
	if pf == nil || pf.Path == "" {
		return
	}
	fs.Pkgs[pf.Path] = pf
}

// metricNameRE matches longtail metric names embedded anywhere in a
// string literal (exposition format strings include labels and verbs).
var metricNameRE = regexp.MustCompile(`longtail_[A-Za-z0-9_]*`)

// SummarizePackage computes the facts for one parsed package, path
// being its plain import path: every longtail_* name in its string
// literals, first occurrence each, sorted by name. The bare prefix
// "longtail_" (a HasPrefix filter, not a metric) is ignored. Test files
// are excluded: facts describe production code only, so a package's
// test variant summarizes identically to the plain one.
func SummarizePackage(path string, fset *token.FileSet, files []*ast.File) *PackageFacts {
	pf := &PackageFacts{Path: path}
	seen := make(map[string]bool)
	for _, f := range files {
		if IsTestFile(fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for _, name := range metricNameRE.FindAllString(text, -1) {
				if name == "longtail_" || seen[name] {
					continue
				}
				seen[name] = true
				pos := fset.Position(lit.Pos())
				pf.Metrics = append(pf.Metrics, MetricUse{Name: name, File: pos.Filename, Line: pos.Line})
			}
			return true
		})
	}
	sort.Slice(pf.Metrics, func(i, j int) bool { return pf.Metrics[i].Name < pf.Metrics[j].Name })
	return pf
}
