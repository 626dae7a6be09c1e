package lintkit

import "fmt"

// Result is an analysis outcome: the surviving findings, plus the
// findings a //lint:allow directive suppressed (kept, with the
// directive's reason, for -json reports and the DESIGN.md audit table).
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// Run applies each analyzer to each loaded package and returns the
// findings in stable order. Findings covered by a //lint:allow
// directive move to Result.Suppressed. Directives that cannot do their
// job are findings themselves, attributed to the pseudo-analyzer
// "allow": a malformed one (missing analyzer or reason), one naming no
// analyzer of the run, and one that suppressed nothing.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) (*Result, error) {
	res := &Result{}
	for _, lp := range pkgs {
		if err := runPackage(lp, analyzers, res); err != nil {
			return nil, err
		}
	}
	SortDiagnostics(res.Diags)
	SortDiagnostics(res.Suppressed)
	return res, nil
}

func runPackage(lp *LoadedPackage, analyzers []*Analyzer, res *Result) error {
	idx := buildAllowIndex(lp.Fset, lp.Files)
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Path:     lp.Path,
			Fset:     lp.Fset,
			Files:    lp.Files,
			Pkg:      lp.Pkg,
			Info:     lp.Info,
			Facts:    lp.Facts,
			report: func(d Diagnostic) {
				if ok, reason := idx.allows(d.Analyzer, d.Pos.Filename, d.Pos.Line); ok {
					d.SuppressReason = reason
					res.Suppressed = append(res.Suppressed, d)
					return
				}
				res.Diags = append(res.Diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("lintkit: analyzer %s on %s: %w", a.Name, lp.Path, err)
		}
	}
	for _, d := range idx.directives {
		var msg string
		switch {
		case !d.wellFormed():
			msg = "lint:allow directive must name an analyzer and give a reason: //lint:allow <analyzer> <reason>"
		case !known[d.analyzer]:
			msg = fmt.Sprintf("lint:allow names %s, which is no analyzer in the suite; delete the directive", d.analyzer)
		case !d.used:
			msg = fmt.Sprintf("lint:allow %s suppresses no finding; delete the directive", d.analyzer)
		default:
			continue
		}
		res.Diags = append(res.Diags, Diagnostic{Pos: lp.Fset.Position(d.pos), Analyzer: "allow", Message: msg})
	}
	return nil
}
