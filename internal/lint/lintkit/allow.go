package lintkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suppression directive. A finding is suppressed when a comment of
// the form
//
//	//lint:allow <analyzer> <reason>
//
// appears on the finding's line, on the line immediately above it, or
// in the doc comment of the enclosing top-level declaration (which
// suppresses that analyzer for the whole declaration). The reason is
// mandatory: an allow directive without one is itself reported, so
// every escape hatch in the tree documents why it is safe.
const allowPrefix = "//lint:allow"

// allowDirective is one parsed //lint:allow comment. A directive
// covers its own line and the one below (same-line and line-above
// placement); one in a top-level declaration's doc comment covers the
// whole declaration, through declEnd.
type allowDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
	declEnd  int
	pos      token.Pos
	// used records that the directive suppressed at least one finding;
	// one that never does is dead weight the checker reports.
	used bool
}

// allowIndex answers "is this diagnostic suppressed?" for one package.
type allowIndex struct {
	directives []*allowDirective
}

// parseAllowComment extracts the directive from one comment, if any.
// ok distinguishes "not a directive" from "directive with empty
// analyzer/reason".
func parseAllowComment(c *ast.Comment) (analyzer, reason string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, allowPrefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	// Anything after an embedded "//" is a comment on the directive
	// (test fixtures use this for want markers), not part of the reason.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return "", "", true
	}
	parts := strings.SplitN(rest, " ", 2)
	analyzer = parts[0]
	if len(parts) == 2 {
		reason = strings.TrimSpace(parts[1])
	}
	return analyzer, reason, true
}

// buildAllowIndex scans every comment in the package's files.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{}
	for _, f := range files {
		// Doc-comment directives cover their whole declaration.
		declEnd := make(map[*ast.Comment]int)
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				for _, c := range doc.List {
					declEnd[c] = fset.Position(decl.End()).Line
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, ok := parseAllowComment(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				idx.directives = append(idx.directives, &allowDirective{
					analyzer: analyzer, reason: reason,
					file: pos.Filename, line: pos.Line, declEnd: declEnd[c], pos: c.Pos(),
				})
			}
		}
	}
	return idx
}

// wellFormed reports whether the directive names an analyzer and a
// reason; a malformed one suppresses nothing and is itself reported.
func (d *allowDirective) wellFormed() bool { return d.analyzer != "" && d.reason != "" }

// allows reports whether a finding from analyzer at (file, line) is
// suppressed, and by which directive's reason.
func (idx *allowIndex) allows(analyzer, file string, line int) (bool, string) {
	for _, d := range idx.directives {
		if !d.wellFormed() || d.analyzer != analyzer || d.file != file {
			continue
		}
		if line >= d.line && line <= max(d.line+1, d.declEnd) {
			d.used = true
			return true, d.reason
		}
	}
	return false, ""
}
