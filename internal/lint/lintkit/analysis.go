// Package lintkit is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis runtime surface this repo's
// project-specific analyzers need: an Analyzer/Pass/Diagnostic model, a
// whole-module package loader built on `go list -export -test` plus the
// compiler's export data, an in-source suppression directive
// (//lint:allow), and the `longtailvet [-json] <packages>` driver.
//
// The repo's invariants — byte-determinism from a seed, mutex-guarded
// field access, journal-before-response ordering — are enforced by the
// analyzers in the parent package (internal/lint); lintkit is only the
// machinery that loads typed syntax and reports findings in standard
// `file:line:col: message` vet format. It exists as its own package so
// the analyzers read like x/tools analyzers and could be ported to the
// real framework by swapping one import if the dependency ever lands in
// the module.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static analysis pass: a name findings are
// attributed to (and suppressed by, via //lint:allow <name>), doc text,
// and the Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer; it must be a valid identifier as it
	// doubles as the //lint:allow selector.
	Name string
	// Doc is the one-paragraph invariant statement shown by -help.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	// A returned error aborts the whole run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one typed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's plain import path (LoadedPackage.Path).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts holds the interprocedural summaries for this package and
	// every other in-module package of the load — see facts.go. Never
	// nil under Run; test harnesses constructing a Pass by hand may
	// leave it nil, and the FactSet accessors are nil-tolerant.
	Facts *FactSet

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPosition records a finding at an explicit file:line — the form
// interprocedural analyzers use when the evidence comes from facts
// (whose positions are file/line pairs, not token.Pos values).
func (p *Pass) ReportPosition(file string, line int, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      token.Position{Filename: file, Line: line},
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// OwnFacts returns this package's own summary from the fact set, or
// nil when facts are unavailable.
func (p *Pass) OwnFacts() *PackageFacts {
	if p.Facts == nil {
		return nil
	}
	return p.Facts.Pkgs[p.Path]
}

// TypeOf is a nil-tolerant shorthand for Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// Diagnostic is one reported finding, already resolved to a concrete
// file position. Suppressed findings (covered by a //lint:allow
// directive) are retained with the directive's reason so machine
// consumers (-json, the DESIGN.md audit table) can enumerate every
// escape hatch in the tree.
type Diagnostic struct {
	Pos            token.Position
	Analyzer       string
	Message        string
	SuppressReason string
}

// String renders the standard vet form the rest of the toolchain (and
// editors) parse: `file:line:col: message [analyzer]`.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// SortDiagnostics orders findings by file, line, column, analyzer —
// the stable order every driver prints in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// PathBase returns the last slash-separated segment of an import path
// — the key the analyzers' package scoping matches on.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// IsTestFile reports whether the file's name marks it as a _test.go
// file. Analyzers whose invariants only bind production code use it to
// skip the test sources of a package's test variant.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}
