// Command longtailvet runs the repo's project-specific static-analysis
// suite (internal/lint): five analyzers that mechanically enforce the
// determinism, locking, metric-naming, retry-policy and error-wrapping
// invariants the reproduction's correctness rests on.
//
//	longtailvet [-json] ./...
//
// It loads the whole module once, test files included, and prints
// findings in vet's file:line:col form (-json: a report that also lists
// every //lint:allow-suppressed site with its reason). Exit status 2
// means findings, 1 means an internal error. Intentional exceptions in
// the tree carry `//lint:allow <analyzer> <reason>` annotations; see
// internal/lint.
package main

import (
	"repro/internal/lint"
	"repro/internal/lint/lintkit"
)

func main() {
	lintkit.Main(lint.Suite()...)
}
